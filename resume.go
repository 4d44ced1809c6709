package masc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"masc/internal/runstate"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// DefaultJournalFsyncEvery is the default journal fsync cadence
// (checkpoints per fsync); see SimOptions.JournalFsyncEvery.
const DefaultJournalFsyncEvery = runstate.DefaultFsyncEvery

// CircuitHash fingerprints an assembled circuit for journal validation:
// FNV-1a over the unknown count and names, the G and C sparsity patterns,
// and every adjustable parameter's name and current value. Resume refuses a
// journal whose recorded hash differs — resuming against a circuit with so
// much as one nudged parameter would silently produce sensitivities of a
// hybrid run that never existed.
func CircuitHash(ckt *Circuit) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(ckt.N))
	for _, n := range ckt.Names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	pat := func(p *sparse.Pattern) {
		u64(uint64(p.NNZ()))
		for _, v := range p.RowPtr {
			u64(uint64(uint32(v)))
		}
		for _, v := range p.ColIdx {
			u64(uint64(uint32(v)))
		}
	}
	pat(ckt.GPat)
	pat(ckt.CPat)
	pars := ckt.Params()
	u64(uint64(len(pars)))
	for i := range pars {
		h.Write([]byte(pars[i].Name))
		h.Write([]byte{0})
		u64(math.Float64bits(pars[i].Get()))
	}
	return h.Sum64()
}

// journalConfig freezes the resolved plan into the journal's config record:
// everything a resumed run must replay identically, as one JSON value.
func (plan *runPlan) journalConfig(ckt *Circuit, fsyncEvery int) (*runstate.Config, error) {
	raw, err := json.Marshal(plan)
	if err != nil {
		return nil, fmt.Errorf("masc: journal the run plan: %w", err)
	}
	return &runstate.Config{CircuitHash: CircuitHash(ckt), N: ckt.N, FsyncEvery: fsyncEvery, Plan: raw}, nil
}

// trajectoryFromSteps rebuilds the forward trajectory prefix a journal's
// checkpoints describe. The states are the journaled bit images and gmin the
// journaled solver setting (0 = the default), so the recompute source
// re-derives the exact tensors the crashed run captured and the sweep the
// exact Jacobians it factored.
func trajectoryFromSteps(steps []runstate.StepRec, method Method, gmin float64) *TransientResult {
	tr := &transient.Result{
		Method: method,
		Gmin:   gmin,
		Times:  make([]float64, len(steps)),
		Hs:     make([]float64, len(steps)),
		States: make([][]float64, len(steps)),
	}
	for i := range steps {
		tr.Times[i] = steps[i].T
		tr.Hs[i] = steps[i].H
		tr.States[i] = steps[i].X
	}
	return tr
}

// ErrFormatVersion is what Resume returns (errors.Is) for a journal written
// under another journal format version — including one checkpointed before
// the LU column order changed, which this binary could only continue into a
// run no uninterrupted binary would produce.
var ErrFormatVersion = runstate.ErrFormatVersion

// Resume continues a journaled run after a crash, kill, or deadline: it
// recovers the journal's trusted prefix (truncating any torn tail),
// revalidates it against ckt, rebuilds the Jacobian store from the
// checkpointed trajectory, re-enters the forward loop after the last
// checkpoint (or skips it when the journal records its end), and runs the
// reverse sweep. The resumed run appends to the same journal, so it is itself
// resumable; a journal ending in a done record returns the finished
// sensitivities without replaying anything (Run.Tran is nil in that case).
//
// The run's shape — storage strategy, worker counts, solver knobs,
// objectives, parameter selection — comes from the journal, not from opt: the
// journaled plan is decoded over a copy of opt.Transient, which keeps only its
// per-process fields (the AfterStep, StepCost and capture hooks). Of the rest
// of opt only the runtime knobs count (Obs, Fault, Ctx, CollectCodecStats).
// Sensitivities of a killed-and-resumed run are bit-identical to an
// uninterrupted one.
func Resume(ckt *Circuit, journalPath string, opt SimOptions) (*Run, error) {
	rcv, err := runstate.Recover(journalPath)
	if err != nil {
		return nil, fmt.Errorf("masc: resume %s: %w", journalPath, err)
	}
	cfg := &rcv.Config
	if want := CircuitHash(ckt); cfg.CircuitHash != want {
		return nil, fmt.Errorf("masc: journal %s records circuit hash %#x, this circuit hashes to %#x: refusing to resume against a different circuit",
			journalPath, cfg.CircuitHash, want)
	}
	plan := &runPlan{Transient: opt.Transient}
	if err := json.Unmarshal(cfg.Plan, plan); err != nil {
		return nil, fmt.Errorf("masc: journal %s: run plan: %w", journalPath, err)
	}
	if rcv.Done != nil {
		return &Run{
			Storage: plan.Storage,
			Sens: &SensitivityResult{DOdp: rcv.Done.DOdp, Params: plan.Params,
				DegradedSteps: rcv.Done.Degraded},
		}, nil
	}
	return plan.execute(ckt, &opt, func() (*runstate.Writer, error) {
		return runstate.Append(journalPath, rcv.Offset, cfg)
	}, rcv)
}
