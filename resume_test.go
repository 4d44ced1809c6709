package masc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"masc/internal/blobframe"
	"masc/internal/workload"
)

// journalFrameEnds scans a journal's frame boundaries: every frame end is a
// clean truncation point, every end plus a few bytes a torn one.
func journalFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(data) {
		_, _, plen, err := blobframe.Peek(data[off:])
		if err != nil {
			t.Fatalf("bad frame at offset %d: %v", off, err)
		}
		off += blobframe.HeaderSize + plen
		if off > len(data) {
			t.Fatal("journal ends mid-frame")
		}
		ends = append(ends, off)
	}
	return ends
}

func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d objectives, want %d", label, len(got), len(want))
	}
	for o := range want {
		for k := range want[o] {
			if math.Float64bits(got[o][k]) != math.Float64bits(want[o][k]) {
				t.Fatalf("%s: DOdp[%d][%d] = %x, want %x", label, o, k,
					math.Float64bits(got[o][k]), math.Float64bits(want[o][k]))
			}
		}
	}
}

// TestJournalResumeTruncateAnywhere is the tentpole property at the facade:
// a journaled run's journal, truncated at ANY point — frame boundaries, torn
// mid-frame, mid-forward, after forward-done, or complete — either refuses to resume (nothing recovered) or resumes to
// bit-identical sensitivities.
func TestJournalResumeTruncateAnywhere(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.journal")
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 2e-4}, Storage: StorageMASC,
		Journal: refPath, JournalFsyncEvery: 8}
	objs := []Objective{obj, {Name: "int(v)", Node: obj.Node, Weight: 2, Integral: true}}
	ref, err := Simulate(ckt, opt, objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalFrameEnds(t, data)
	if len(ends) < 10 {
		t.Fatalf("journal has only %d frames", len(ends))
	}

	cuts := map[int]bool{0: true, 1: true, ends[0] - 3: true}
	for _, i := range []int{0, 1, len(ends) / 4, len(ends) / 2,
		len(ends) - 5, len(ends) - 4, len(ends) - 3, len(ends) - 2, len(ends) - 1} {
		if i < 0 || i >= len(ends) {
			continue
		}
		cuts[ends[i]] = true   // clean cut after a frame
		cuts[ends[i]+7] = true // torn a few bytes into the next frame
	}
	for cut := range cuts {
		if cut > len(data) {
			cut = len(data)
		}
		p := filepath.Join(dir, fmt.Sprintf("cut%d.journal", cut))
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		run, err := Resume(ckt, p, SimOptions{})
		if cut < ends[0] {
			if err == nil {
				t.Fatalf("cut %d inside the config frame resumed anyway", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		sameBits(t, fmt.Sprintf("cut %d", cut), run.Sens.DOdp, ref.Sens.DOdp)

		// The healed journal ends in a done record now: resuming again must
		// short-circuit to the same result without replaying anything.
		again, err := Resume(ckt, p, SimOptions{})
		if err != nil {
			t.Fatalf("cut %d: second resume: %v", cut, err)
		}
		if again.Tran != nil {
			t.Fatalf("cut %d: second resume replayed the forward phase", cut)
		}
		sameBits(t, fmt.Sprintf("cut %d (short-circuit)", cut), again.Sens.DOdp, ref.Sens.DOdp)
	}
}

// crashedJournal runs opt journaled twice: once to completion — the reference
// it returns — and once aborted by an error from its AfterStep hook at step
// crashAt, the in-process stand-in for a kill, whose journal path it returns.
func crashedJournal(t *testing.T, ckt *Circuit, opt SimOptions, objs []Objective, crashAt int) (*Run, string) {
	t.Helper()
	dir := t.TempDir()
	opt.Journal = filepath.Join(dir, "ref.journal")
	ref, err := Simulate(ckt, opt, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = filepath.Join(dir, "crash.journal")
	opt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
		if step == crashAt {
			return errors.New("simulated crash")
		}
		return nil
	}
	if _, err := Simulate(ckt, opt, objs, nil); err == nil {
		t.Fatal("crashing run succeeded")
	}
	return ref, opt.Journal
}

// TestJournalResumeAfterForwardCrash aborts a journaled run mid-forward and
// resumes it in place.
func TestJournalResumeAfterForwardCrash(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4}, Storage: StorageMASC}
	ref, path := crashedJournal(t, ckt, opt, []Objective{obj}, 25)
	run, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume after crash", run.Sens.DOdp, ref.Sens.DOdp)
}

// TestResumeKeepsCallerHooks: the journal replaces the run's shape, not the
// caller's per-process hooks or context. A resumed run whose AfterStep hook
// cancels the caller's context stops at a step boundary with ErrInterrupted,
// and the journal it leaves still resumes to the uninterrupted bits.
func TestResumeKeepsCallerHooks(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4}, Storage: StorageMASC}
	ref, path := crashedJournal(t, ckt, opt, []Objective{obj}, 10)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	after := 0
	hooked := SimOptions{Ctx: ctx}
	hooked.Transient.AfterStep = func(int, float64, float64, float64, int, []float64) error {
		if after++; after == 5 {
			cancel()
		}
		return nil
	}
	if _, err := Resume(ckt, path, hooked); !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("resume whose AfterStep cancels its context: %v, want ErrInterrupted wrapping context.Canceled", err)
	}
	if after != 5 {
		t.Fatalf("the resumed run called the caller's AfterStep %d times, want 5", after)
	}
	run, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume after a stopped resume", run.Sens.DOdp, ref.Sens.DOdp)
}

// TestResumeIgnoresCallerShape: every shape field of the caller's options
// loses to the journal's. The journaled plan is decoded over the caller's
// solver options, so a solver knob whose journaled value is the zero one (the
// default method, a fixed step) must still be written by the decode: the
// plan's JSON has no omitempty field to skip.
func TestResumeIgnoresCallerShape(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4}, Storage: StorageMASC}
	ref, path := crashedJournal(t, ckt, opt, []Objective{obj}, 25)

	shaped := SimOptions{Storage: StorageMemory, Async: true, MemBudgetBytes: 1 << 10, AdjointWorkers: 5,
		Transient: TransientOptions{TStep: 4e-6, TStop: 1e-4, Method: MethodTrap, Adaptive: true}}
	run, err := Resume(ckt, path, shaped)
	if err != nil {
		t.Fatal(err)
	}
	if run.Storage != StorageMASC {
		t.Fatalf("resumed as %s, journaled %s", run.Storage, StorageMASC)
	}
	if run.TensorStats.BudgetBytes != 0 || run.Tran.Steps() != ref.Tran.Steps() ||
		run.TensorStats.StoredBytes != ref.TensorStats.StoredBytes {
		t.Fatalf("resumed under budget %d B over %d steps storing %d B, the journaled run had no budget, %d steps, %d B",
			run.TensorStats.BudgetBytes, run.Tran.Steps(), run.TensorStats.StoredBytes, ref.Tran.Steps(), ref.TensorStats.StoredBytes)
	}
	sameBits(t, "resume with the caller's shape", run.Sens.DOdp, ref.Sens.DOdp)
}

// TestResumeReseedSealsTheSameBlobs: a resumed run re-seeds its store from the
// journal's states, not the solver's, and the chain codes C in the branch
// voltage from those states — so the resumed store must seal what the
// uninterrupted run sealed, to the byte and to the codec's every decision.
func TestResumeReseedSealsTheSameBlobs(t *testing.T) {
	ds, err := workload.Build("MOS_T7", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := SimOptions{Transient: ds.Tran, Storage: StorageMASC, CollectCodecStats: true,
		Journal: filepath.Join(dir, "ref.journal")}
	ref, err := Simulate(ds.Ckt, opt, ds.Objectives, ds.Params)
	if err != nil {
		t.Fatal(err)
	}
	var volt int64
	for _, n := range ref.CodecStatsC.VoltBlobs {
		volt += n
	}
	if volt == 0 {
		t.Fatal("the reference run coded no blob of C in the voltage")
	}

	opt.Journal = filepath.Join(dir, "crash.journal")
	copt := opt
	copt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
		if step == ref.TensorStats.Steps/2 {
			return errors.New("simulated crash")
		}
		return nil
	}
	if _, err := Simulate(ds.Ckt, copt, ds.Objectives, ds.Params); err == nil {
		t.Fatal("crashing run succeeded")
	}
	run, err := Resume(ds.Ckt, opt.Journal, SimOptions{CollectCodecStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume", run.Sens.DOdp, ref.Sens.DOdp)
	if run.TensorStats.StoredBytes != ref.TensorStats.StoredBytes {
		t.Fatalf("resumed store holds %d B, the uninterrupted one %d B", run.TensorStats.StoredBytes, ref.TensorStats.StoredBytes)
	}
	if run.CodecStatsG != ref.CodecStatsG || run.CodecStatsC != ref.CodecStatsC {
		t.Fatalf("resumed codecs decided otherwise: C VoltBlobs %v RegionBits %v, uninterrupted %v %v",
			run.CodecStatsC.VoltBlobs, run.CodecStatsC.RegionBits, ref.CodecStatsC.VoltBlobs, ref.CodecStatsC.RegionBits)
	}
}

// TestResumeIgnoresRetiredPlanKeys: a journal written before a plan field was
// deleted (disable_degrade, the degrade opt-out; windows and anchor_every, the
// windowed reverse sweep's; workers, the compressor's row chunks, here four;
// pipeline_depth, the async queue's, here four; and the solver's step-control
// fields, at the 0 every such journal holds) still resumes under the same
// format version — the plan decode skips keys this build no longer has — and
// to the uninterrupted bits.
func TestResumeIgnoresRetiredPlanKeys(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4}, Storage: StorageMASC}
	ref, path := crashedJournal(t, ckt, opt, []Objective{obj}, 25)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := journalFrameEnds(t, data)[0]
	// UseNumber keeps the 64-bit circuit hash exact through the rewrite.
	dec := json.NewDecoder(bytes.NewReader(data[blobframe.HeaderSize:end]))
	dec.UseNumber()
	var cfg map[string]any
	if err := dec.Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	plan := cfg["plan"].(map[string]any)
	plan["disable_degrade"] = false
	plan["windows"] = 2
	plan["anchor_every"] = 25
	plan["workers"] = 4
	plan["pipeline_depth"] = 4
	tr := plan["transient"].(map[string]any)
	for _, k := range []string{"MaxCuts", "DampLimit", "MinStep", "MaxStep", "LTETol"} {
		tr[k] = 0
	}
	payload, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blobframe.Wrap('R', 0, payload), data[end:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatalf("resume of a journal whose plan holds retired keys: %v", err)
	}
	sameBits(t, "resume with a retired plan key", run.Sens.DOdp, ref.Sens.DOdp)
}

// TestResumeAfterRetiredWindowRecord: a binary that still had the windowed
// reverse sweep journaled each finished window as a 'W' record after
// forward-done. Its journal, killed mid-adjoint, resumes: recovery stops at
// the record kind it does not know, the resume runs the reverse sweep again —
// never folding the journaled rows, which here are junk — and lands on the
// uninterrupted bits, leaving a journal that short-circuits.
func TestResumeAfterRetiredWindowRecord(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	objs := []Objective{obj, {Name: "int(v)", Node: obj.Node, Weight: 2, Integral: true}}
	ref, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4},
		Storage: StorageMASC, Journal: path}, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forwardDone := -1
	for off := 0; off < len(data); {
		kind, _, plen, err := blobframe.Peek(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += blobframe.HeaderSize + plen
		if kind == 'F' {
			forwardDone = off
		}
	}
	if forwardDone < 0 {
		t.Fatal("the journal has no forward-done record")
	}
	// The topmost of three windows, [n/2+1, n], as the windowed engine
	// journaled it: index, range, row length, degraded count, then one row
	// of objectives × params contributions per step.
	n, rowLen := ref.Tran.Steps(), len(objs)*len(ckt.Params())
	lo := n/2 + 1
	payload := binary.LittleEndian.AppendUint32(nil, 2)
	for _, v := range []int{lo, n, rowLen, 0} {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
	}
	for k := 0; k < (n-lo+1)*rowLen; k++ {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(1e3+float64(k)))
	}
	killed := append(append([]byte(nil), data[:forwardDone]...), blobframe.Wrap('W', 2, payload)...)
	if err := os.WriteFile(path, killed, 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatalf("resume of a journal holding a window record: %v", err)
	}
	if run.Tran == nil || run.Tran.Steps() != n {
		t.Fatal("the resume did not rebuild the journaled trajectory")
	}
	sameBits(t, "resume past a window record", run.Sens.DOdp, ref.Sens.DOdp)
	again, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Tran != nil {
		t.Fatal("the healed journal replayed the run instead of short-circuiting")
	}
	sameBits(t, "healed journal", again.Sens.DOdp, ref.Sens.DOdp)
}

// TestResumeRejectsForeignCircuit: a journal must not resume against a
// circuit whose topology or parameter values differ.
func TestResumeRejectsForeignCircuit(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	if _, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 5e-5}, Journal: path},
		[]Objective{obj}, nil); err != nil {
		t.Fatal(err)
	}

	b := NewBuilder()
	b.AddVSource("vin", "in", "0", Sin{VA: 1, Freq: 5e3})
	b.AddResistor("r1", "in", "mid", 999) // nudged value
	b.AddCapacitor("c1", "mid", "0", 1e-8)
	b.AddDiode("d1", "mid", "out")
	b.AddResistor("r2", "out", "0", 5e3)
	b.AddCapacitor("c2", "out", "0", 2e-8)
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(other, path, SimOptions{}); err == nil {
		t.Fatal("resume accepted a circuit with a nudged parameter")
	}
	if _, err := Resume(ckt, path, SimOptions{}); err != nil {
		t.Fatalf("resume rejected the original circuit: %v", err)
	}
}

// TestResumeRejectsOtherFormatVersion: a journal checkpointed by a binary
// with another journal format (version 1 factored in RCM column order,
// version 4 spelled the plan out field by field; versions 2, 3, 5, 6 and 7 were
// written by binaries with an older masczip) is refused by name, not
// continued and not mistaken for an empty journal.
func TestResumeRejectsOtherFormatVersion(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	if _, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 5e-5}, Journal: path},
		[]Objective{obj}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := journalFrameEnds(t, data)[0]
	var cfg map[string]any
	if err := json.Unmarshal(data[blobframe.HeaderSize:end], &cfg); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{1, 2, 3, 4, 5, 6, 7} {
		cfg["format_version"] = version
		payload, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		old := append(blobframe.Wrap('R', 0, payload), data[end:]...)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(ckt, path, SimOptions{}); !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("resume of a version-%d journal: %v, want ErrFormatVersion", version, err)
		}
	}
}

// TestResumeRejectsRetiredStorage: a journal whose config names a storage this
// build no longer has — "auto", the retired codec trial, or "masc+markov", now
// what "masc" codes — fails by that name when unfinished, before the journal
// is reopened, so the file is left as it was; a finished one still returns
// its recorded sensitivities, which need no store.
func TestResumeRejectsRetiredStorage(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	good, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 5e-5}, Journal: path},
		[]Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalFrameEnds(t, data)
	for _, name := range []string{"auto", "masc+markov"} {
		t.Run(name, func(t *testing.T) {
			// UseNumber keeps the 64-bit circuit hash exact through the rewrite.
			dec := json.NewDecoder(bytes.NewReader(data[blobframe.HeaderSize:ends[0]]))
			dec.UseNumber()
			var cfg map[string]any
			if err := dec.Decode(&cfg); err != nil {
				t.Fatal(err)
			}
			cfg["plan"].(map[string]any)["storage"] = name
			payload, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			retired := func(cut int) []byte {
				journal := append(blobframe.Wrap('R', 0, payload), data[ends[0]:cut]...)
				if err := os.WriteFile(path, journal, 0o644); err != nil {
					t.Fatal(err)
				}
				return journal
			}

			unfinished := retired(ends[len(ends)/3])
			_, err = Resume(ckt, path, SimOptions{})
			if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
				t.Fatalf("resume of an unfinished %s journal: %v, want an error naming %q", name, err, name)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, unfinished) {
				t.Fatalf("the refused resume touched the journal (%d bytes, was %d; %v)", len(after), len(unfinished), err)
			}

			retired(len(data))
			done, err := Resume(ckt, path, SimOptions{})
			if err != nil {
				t.Fatalf("resume of a finished %s journal: %v", name, err)
			}
			sameBits(t, "finished "+name+" journal", done.Sens.DOdp, good.Sens.DOdp)
		})
	}
}

// TestSimulateCancellation: a pre-canceled context and an expired deadline
// both surface as the context error from Simulate, and a journaled run
// interrupted that way stays resumable.
func TestSimulateCancellation(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	objs := []Objective{obj}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4}, Ctx: ctx},
		objs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	dir := t.TempDir()
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 1e-4}, Journal: filepath.Join(dir, "ref.journal")}
	ref, err := Simulate(ckt, opt, objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel mid-forward via the user AfterStep hook (which the journal
	// chains after), then resume to completion.
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	copt := opt
	copt.Ctx = cctx
	copt.Journal = filepath.Join(dir, "canceled.journal")
	copt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
		if step == 10 {
			ccancel()
		}
		return nil
	}
	if _, err := Simulate(ckt, copt, objs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	run, err := Resume(ckt, copt.Journal, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume after cancel", run.Sens.DOdp, ref.Sens.DOdp)
}

// cancelAtPoll is a context that, on its at-th Err poll, cancels itself from
// a fresh goroutine: the cancellation lands a moment later, wherever the run
// then is — often while the overlapped reverse sweep waits on its fetcher.
// With at == 0 it only counts the polls.
type cancelAtPoll struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	polls  atomic.Int64
}

func (c *cancelAtPoll) Err() error {
	if c.polls.Add(1) == c.at {
		go c.cancel()
	}
	return c.Context.Err()
}

// TestCancelDuringReverseSweep: a context that ends during the reverse sweep
// fails the run with the context's error — not ErrInterrupted, which is the
// forward loop's — and leaves a journal that resumes to the uninterrupted
// bits. Under -race it also checks that the fetcher a canceled sweep leaves
// behind does not race the store's Close — with two workers, and with one
// over a sync and an async store.
func TestCancelDuringReverseSweep(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	objs := []Objective{obj}
	for _, c := range []struct {
		name string
		opt  SimOptions
	}{
		{string(StorageMemory), SimOptions{Storage: StorageMemory, AdjointWorkers: 2}},
		{string(StorageDisk), SimOptions{Storage: StorageDisk, AdjointWorkers: 2}},
		{string(StorageMASC), SimOptions{Storage: StorageMASC, AdjointWorkers: 2}},
		{"masc-async-1", SimOptions{Storage: StorageMASC, Async: true, AdjointWorkers: 1}},
		{"masc-1", SimOptions{Storage: StorageMASC, AdjointWorkers: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := c.opt
			opt.Transient = TransientOptions{TStep: 2e-6, TStop: 1e-4}

			// An uncanceled run counts the polls: fwd by the forward loop's
			// last step, total by the end of the reverse sweep.
			probe := &cancelAtPoll{Context: context.Background()}
			var fwd int64
			popt := opt
			popt.Ctx = probe
			popt.Journal = filepath.Join(dir, "ref.journal")
			popt.Transient.AfterStep = func(int, float64, float64, float64, int, []float64) error {
				fwd = probe.polls.Load()
				return nil
			}
			ref, err := Simulate(ckt, popt, objs, nil)
			if err != nil {
				t.Fatal(err)
			}
			total := probe.polls.Load()

			canceled := 0
			for at := fwd + 1; at <= total; at++ {
				ctx, cancel := context.WithCancel(context.Background())
				copt := opt
				copt.Ctx = &cancelAtPoll{Context: ctx, cancel: cancel, at: at}
				copt.Journal = filepath.Join(dir, fmt.Sprintf("cancel%d.journal", at))
				_, err := Simulate(ckt, copt, objs, nil)
				cancel()
				if err == nil {
					continue // the cancellation landed after the sweep finished
				}
				if errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
					t.Fatalf("poll %d: %v, want context.Canceled without ErrInterrupted", at, err)
				}
				canceled++
				run, err := Resume(ckt, copt.Journal, SimOptions{})
				if err != nil {
					t.Fatalf("poll %d: resume: %v", at, err)
				}
				sameBits(t, fmt.Sprintf("resume after a cancel at poll %d", at), run.Sens.DOdp, ref.Sens.DOdp)
			}
			if canceled == 0 {
				t.Fatalf("none of polls %d..%d canceled the reverse sweep", fwd+1, total)
			}
		})
	}
}

// openDescriptors counts this process's open file descriptors, or -1 where
// /proc does not say.
func openDescriptors() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestUnbuildableStoreLeavesJournal: a request whose store cannot be built —
// an unknown strategy, a spill directory that does not exist — fails before
// it touches the journal at its path. It used to truncate the journal of an
// earlier good run to a bare config record (Simulate creates the journal
// with O_TRUNC before the store) and leak the descriptor it had just opened,
// as did a Resume whose spill directory had gone.
func TestUnbuildableStoreLeavesJournal(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 2e-4}, Storage: StorageMemory, Journal: path}
	good, err := Simulate(ckt, opt, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string, fds int) {
		t.Helper()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: journal went from %d to %d bytes", what, len(before), len(after))
		}
		if now := openDescriptors(); now != fds {
			t.Fatalf("%s: %d descriptors open, %d before the call", what, now, fds)
		}
	}
	for what, bad := range map[string]SimOptions{
		"unknown strategy":       {Storage: "bogus"},
		"no spill dir":           {Storage: StorageDisk, DiskDir: filepath.Join(dir, "nonexistent")},
		"negative fsync cadence": {Storage: StorageMemory, JournalFsyncEvery: -1},
	} {
		bad.Transient, bad.Journal = opt.Transient, path
		fds := openDescriptors()
		if _, err := Simulate(ckt, bad, []Objective{obj}, nil); err == nil {
			t.Fatalf("%s: Simulate succeeded", what)
		}
		unchanged(what, fds)
	}
	resumed, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatalf("the earlier journal no longer resumes: %v", err)
	}
	sameBits(t, "resumed", resumed.Sens.DOdp, good.Sens.DOdp)

	// The same early return under Resume: a disk-store run cut mid-forward,
	// resumed after its spill directory is gone.
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	opt.Storage, opt.DiskDir = StorageDisk, spill
	if _, err := Simulate(ckt, opt, []Objective{obj}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalFrameEnds(t, data)
	before = data[:ends[len(ends)/3]]
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(spill); err != nil {
		t.Fatal(err)
	}
	fds := openDescriptors()
	if _, err := Resume(ckt, path, SimOptions{}); err == nil {
		t.Fatal("Resume without its spill directory succeeded")
	}
	unchanged("resume without spill dir", fds)
}
