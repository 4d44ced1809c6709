package masc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"masc/internal/adjoint"
	"masc/internal/runstate"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// Re-exported journal errors and knobs.
var (
	// ErrNewtonBudget is wrapped into run errors when
	// SimOptions.NewtonBudget expires inside one integration step.
	ErrNewtonBudget = transient.ErrNewtonBudget
	// ErrFetchStalled is wrapped into run errors when
	// SimOptions.FetchStallTimeout expires waiting for one Jacobian fetch.
	ErrFetchStalled = adjoint.ErrFetchStalled
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
// everything a resumed run must replay identically, including the
// NumCPU-derived window count and anchor cadence.
func (plan *runPlan) journalConfig(ckt *Circuit, opt *SimOptions) *runstate.Config {
	t := &plan.topt
	params := plan.params
	if params == nil {
		params = make([]int, len(ckt.Params()))
		for i := range params {
			params[i] = i
		}
	}
	objs := make([]runstate.ObjectiveRec, len(plan.objectives))
	for i, o := range plan.objectives {
		objs[i] = runstate.ObjectiveRec{Name: o.Name, Node: o.Node,
			Weight: o.Weight, Step: o.Step, Integral: o.Integral}
	}
	return &runstate.Config{
		CircuitHash: CircuitHash(ckt),
		N:           ckt.N,

		Storage:         string(plan.storage),
		Workers:         plan.workers,
		AdjointWorkers:  opt.AdjointWorkers,
		Windows:         plan.windows,
		AnchorEvery:     plan.anchorEvery,
		Async:           opt.Async,
		PipelineDepth:   opt.PipelineDepth,
		DiskBytesPerSec: opt.DiskBytesPerSec,
		DiskDir:         opt.DiskDir,
		MemBudgetBytes:  opt.MemBudgetBytes,
		DisableDegrade:  opt.DisableDegrade,

		TStart:    t.TStart,
		TStep:     t.TStep,
		TStop:     t.TStop,
		MaxNewton: t.MaxNewton,
		AbsTol:    t.AbsTol,
		RelTol:    t.RelTol,
		Gmin:      t.Gmin,
		MaxCuts:   t.MaxCuts,
		DampLimit: t.DampLimit,
		Method:    string(t.Method),
		Adaptive:  t.Adaptive,
		MinStep:   t.MinStep,
		MaxStep:   t.MaxStep,
		LTETol:    t.LTETol,

		Objectives: objs,
		Params:     params,

		FsyncEvery: opt.JournalFsyncEvery,
	}
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
// run no uninterrupted binary would produce, or one whose spill file holds
// masczip blobs from before the stamp revision bit, which this binary's
// decoder refuses.
var ErrFormatVersion = runstate.ErrFormatVersion

// Resume continues a journaled run after a crash, kill, or deadline: it
// recovers the journal's trusted prefix (truncating any torn tail),
// revalidates it against ckt, rebuilds the Jacobian store from the
// checkpointed trajectory, re-enters the forward loop after the last
// checkpoint, and replays completed adjoint windows instead of re-sweeping
// them. The resumed run appends to the same journal, so it is itself
// resumable; a journal ending in a done record returns the finished
// sensitivities without replaying anything (Run.Tran is nil in that case).
//
// The run's shape — storage strategy, window count, solver knobs,
// objectives, parameter selection — comes from the journal, not from opt;
// opt contributes only the runtime-side knobs (Obs, Fault, Ctx, Deadline,
// NewtonBudget, FetchStallTimeout, CollectCodecStats). Sensitivities of a
// killed-and-resumed run are bit-identical to an uninterrupted one.
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
	objectives := make([]Objective, len(cfg.Objectives))
	for i, o := range cfg.Objectives {
		objectives[i] = Objective{Name: o.Name, Node: o.Node,
			Weight: o.Weight, Step: o.Step, Integral: o.Integral}
	}
	if rcv.Done != nil {
		return &Run{
			Storage: Storage(cfg.Storage),
			Sens: &SensitivityResult{DOdp: rcv.Done.DOdp, Params: cfg.Params,
				DegradedSteps: rcv.Done.Degraded},
		}, nil
	}

	plan := &runPlan{
		topt: TransientOptions{
			TStart:    cfg.TStart,
			TStep:     cfg.TStep,
			TStop:     cfg.TStop,
			MaxNewton: cfg.MaxNewton,
			AbsTol:    cfg.AbsTol,
			RelTol:    cfg.RelTol,
			Gmin:      cfg.Gmin,
			MaxCuts:   cfg.MaxCuts,
			DampLimit: cfg.DampLimit,
			Method:    Method(cfg.Method),
			Adaptive:  cfg.Adaptive,
			MinStep:   cfg.MinStep,
			MaxStep:   cfg.MaxStep,
			LTETol:    cfg.LTETol,
		},
		storage:     Storage(cfg.Storage),
		workers:     cfg.Workers,
		windows:     cfg.Windows,
		anchorEvery: cfg.AnchorEvery,
		objectives:  objectives,
		params:      cfg.Params,
	}
	if opt.NewtonBudget > 0 {
		plan.topt.NewtonBudget = opt.NewtonBudget
	}
	// The journaled shape wins; only runtime-side knobs survive from the
	// caller's options.
	ropt := SimOptions{
		Storage:           plan.storage,
		Workers:           cfg.Workers,
		AdjointWorkers:    cfg.AdjointWorkers,
		AdjointWindows:    cfg.Windows,
		Async:             cfg.Async,
		PipelineDepth:     cfg.PipelineDepth,
		DiskBytesPerSec:   cfg.DiskBytesPerSec,
		DiskDir:           cfg.DiskDir,
		MemBudgetBytes:    cfg.MemBudgetBytes,
		DisableDegrade:    cfg.DisableDegrade,
		JournalFsyncEvery: cfg.FsyncEvery,
		Journal:           journalPath,

		Obs:               opt.Obs,
		Fault:             opt.Fault,
		Ctx:               opt.Ctx,
		Deadline:          opt.Deadline,
		NewtonBudget:      opt.NewtonBudget,
		FetchStallTimeout: opt.FetchStallTimeout,
		CollectCodecStats: opt.CollectCodecStats,
	}
	return plan.execute(ckt, &ropt, func() (*runstate.Writer, error) {
		return runstate.Append(journalPath, rcv.Offset, cfg)
	}, rcv)
}
