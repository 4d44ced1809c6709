package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"masc"
	"masc/internal/adjoint"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around a call it makes itself. Times are nanoseconds since the tracer was
// created; Parent is the span that caused this one (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Step   int    `json:"step"` // -1 when the span is not about one timestep
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run is over. The lock is for the
// pipelined workload, whose fetches arrive from the adjoint's goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(parent int, name string, step int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Step: step,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total returns the summed duration in seconds and the count of the spans
// called name.
func (t *tracer) total(name string) (sec float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			sec += float64(s.End-s.Start) / 1e9
			n++
		}
	}
	return sec, n
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repairStore is what both stores the workloads use offer: the Store
// contract plus the Repairer the adjoint's degradation ladder looks for.
type repairStore interface {
	jactensor.Store
	jactensor.Repairer
}

// tracedStore times the four Store calls the pipeline makes. Everything
// else is forwarded by embedding.
type tracedStore struct {
	repairStore
	tr     *tracer
	parent int // span the next store call is a child of
}

func (s *tracedStore) Put(step int, jVals, cVals []float64) error {
	id := s.tr.start(s.parent, "jactensor.put", step)
	err := s.repairStore.Put(step, jVals, cVals)
	s.tr.end(id)
	return err
}

func (s *tracedStore) EndForward() error {
	id := s.tr.start(s.parent, "jactensor.end_forward", -1)
	err := s.repairStore.EndForward()
	s.tr.end(id)
	return err
}

func (s *tracedStore) Fetch(step int) ([]float64, []float64, error) {
	id := s.tr.start(s.parent, "jactensor.fetch", step)
	j, c, err := s.repairStore.Fetch(step)
	s.tr.end(id)
	return j, c, err
}

func (s *tracedStore) Release(step int) {
	id := s.tr.start(s.parent, "jactensor.release", step)
	s.repairStore.Release(step)
	s.tr.end(id)
}

// tracedSliceStore additionally exposes the compressed store's window views.
// A wrapper without them would silently turn the windowed adjoint off. The
// window sweeps then fetch through their own StoreSlice, which the benchmark
// cannot wrap from outside: on the pipelined workload fetch/release spans
// cover only what still goes through the parent store.
type tracedSliceStore struct {
	*tracedStore
	cs *jactensor.CompressedStore
}

func (s tracedSliceStore) AnchorSteps() []int { return s.cs.AnchorSteps() }
func (s tracedSliceStore) Slice(lo, hi int) (*jactensor.StoreSlice, error) {
	return s.cs.Slice(lo, hi)
}

// tracedRun is the facade's pipeline for the three presets the workloads
// use, assembled from the layers' public entry points so the benchmark can
// put a span around each boundary: store construction, transient.Run with
// the capture hook, EndForward, adjoint.Sensitivities. Its result is
// checked against the same reference bits as the facade's, which is what
// keeps this copy honest.
func tracedRun(in *inputs, tr *tracer) (*adjoint.Result, error) {
	ckt, opt, topt := in.ds.Ckt, in.opt, in.ds.Tran
	jc, cc := masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{})
	windows := opt.AdjointWindows
	anchorEvery := 0
	if windows > 1 {
		if anchorEvery = topt.EstimatedSteps() / windows; anchorEvery < 1 {
			anchorEvery = 1
		}
	}

	root := tr.start(0, "run", -1)
	defer tr.end(root)
	ts := &tracedStore{tr: tr, parent: root}
	var src adjoint.JacobianSource = ts
	var tiered *jactensor.TieredStore
	if opt.MemBudgetBytes > 0 {
		if windows > 1 {
			return nil, errors.New("traced run does not model a budget with adjoint windows")
		}
		tiered = jactensor.NewTieredStore(jc, cc, jactensor.TieredConfig{BudgetBytes: opt.MemBudgetBytes,
			DiskDir: opt.DiskDir, DiskBytesPerSec: opt.DiskBytesPerSec})
		topt.StepCost = func(_ int, d time.Duration) { tiered.ObserveStepCost(d) }
		ts.repairStore = tiered
	} else {
		var cs *jactensor.CompressedStore
		if opt.Async {
			cs = jactensor.NewCompressedStoreAsync(jc, cc, ckt.JPat, ckt.CPat, opt.PipelineDepth)
		} else {
			cs = jactensor.NewCompressedStore(jc, cc, ckt.JPat, ckt.CPat)
		}
		if anchorEvery > 0 {
			cs.SetAnchorEvery(anchorEvery)
			src = tracedSliceStore{ts, cs}
		}
		ts.repairStore = cs
	}
	// fail closes the store on an error path, which also stops the async
	// pipeline's worker.
	fail := func(err error) (*adjoint.Result, error) {
		ts.Close()
		return nil, err
	}

	topt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		return ts.Put(step, J.Val, C.Val)
	}
	ts.parent = tr.start(root, "transient.forward", -1)
	tran, err := transient.Run(ckt, topt)
	tr.end(ts.parent)
	if err != nil {
		return fail(err)
	}
	if tiered != nil {
		tiered.SetRecompute(adjoint.NewRecomputeSource(ckt, tran).Fetch)
	}
	ts.parent = root
	if err := ts.EndForward(); err != nil {
		return fail(err)
	}
	ts.parent = tr.start(root, "adjoint.reverse", -1)
	sens, err := adjoint.Sensitivities(ckt, tran, src, in.objectives, adjoint.Options{
		Params: in.params, Workers: opt.AdjointWorkers, Windows: windows})
	tr.end(ts.parent)
	if err != nil {
		return fail(err)
	}
	return sens, ts.Close()
}

// untracedReps facade runs are timed in the traced process, after one
// warm-up, for masc.run_s.
const untracedReps = 3

// tracedPhase produces the per-layer metrics: a few untraced facade runs
// (masc.run_s, the base every share is taken of, and the source of the
// counts the program itself reports), one traced run, then the kernel
// replay.
func tracedPhase(w spec, cs *childSpec, res *childResult) error {
	ref, err := loadReference(cs.RefPath)
	if err != nil {
		return err
	}
	in, err := w.build(cs.Seed, cs.ScaleMul, cs.TmpDir)
	if err != nil {
		return err
	}
	m := res.Metrics

	var run *masc.Run
	for rep := 0; rep <= untracedReps; rep++ {
		t0 := time.Now()
		if run, err = in.simulate(); err != nil {
			return fmt.Errorf("facade run: %w", err)
		}
		d := time.Since(t0).Seconds()
		checkSens(res, fmt.Sprintf("facade run %d", rep), run.Sens, ref)
		if rep > 0 {
			res.RunSamples = append(res.RunSamples, d)
		}
	}
	base := median(res.RunSamples)
	m["masc.run_s"] = base
	resultCounts(m, run)

	tr := newTracer()
	t0 := time.Now()
	sens, err := tracedRun(in, tr)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	checkSens(res, "traced run", sens, ref)
	if err := tr.write(cs.SpanPath); err != nil {
		return err
	}
	spanLedger(m, tr, wall, base)

	// A quarter of the time box for the replay keeps the traced phase no
	// longer than the timed one.
	if err := replay(in, run, time.Duration(cs.Seconds/4*float64(time.Second)), res); err != nil {
		return fmt.Errorf("kernel replay: %w", err)
	}
	return nil
}

// spanLedger folds the span tree into self times. Every parent's children
// run one after another on the serial workloads, so self = span − children
// and the rows sum back to the traced wall time.
func spanLedger(m map[string]float64, tr *tracer, wall, base float64) {
	runS, _ := tr.total("run")
	fwd, _ := tr.total("transient.forward")
	put, nPut := tr.total("jactensor.put")
	endFwd, _ := tr.total("jactensor.end_forward")
	rev, _ := tr.total("adjoint.reverse")
	fetch, nFetch := tr.total("jactensor.fetch")
	rel, _ := tr.total("jactensor.release")
	m["trace.wall_s"] = wall
	m["trace.overhead_frac"] = wall/base - 1
	m["trace.unattributed_s"] = runS - fwd - endFwd - rev
	m["transient.forward_s"] = fwd
	m["transient.self_s"] = fwd - put
	m["jactensor.put_s"] = put
	m["jactensor.put_count"] = float64(nPut)
	m["jactensor.end_forward_s"] = endFwd
	m["adjoint.reverse_s"] = rev
	m["adjoint.self_s"] = rev - fetch - rel
	m["jactensor.fetch_s"] = fetch
	m["jactensor.fetch_count"] = float64(nFetch)
	m["jactensor.release_s"] = rel
}

// resultCounts copies what the program reports about one facade run.
func resultCounts(m map[string]float64, run *masc.Run) {
	st, ts, sens := run.Tran.Stats, run.TensorStats, run.Sens
	m["transient.steps"] = float64(run.Tran.Steps())
	m["transient.newton_iters"] = float64(st.NewtonIters)
	m["transient.factorizations"] = float64(st.Factorizations)
	m["transient.refactorizations"] = float64(st.Refactorizations)
	m["transient.steps_cut"] = float64(st.StepsCut)
	m["jactensor.raw_mb"] = float64(ts.RawBytes) / 1e6
	m["jactensor.stored_mb"] = float64(ts.StoredBytes) / 1e6
	m["jactensor.compress_s"] = ts.CompressTime.Seconds()
	m["jactensor.decompress_s"] = ts.DecompressTime.Seconds()
	m["jactensor.stall_s"] = ts.StallTime.Seconds()
	m["jactensor.io_s"] = ts.IOTime.Seconds()
	m["jactensor.anchor_mb"] = float64(ts.AnchorBytes) / 1e6
	m["tiersched.demotions"] = float64(ts.TierDemotions)
	m["tiersched.promotions"] = float64(ts.TierPromotions)
	m["tiersched.recomputes"] = float64(ts.TierRecomputes)
	m["tiersched.disk_steps"] = float64(ts.TierDiskSteps)
	m["adjoint.fetch_wait_s"] = sens.Timing.Fetch.Seconds()
	m["adjoint.factor_solve_s"] = sens.Timing.FactorSolve.Seconds()
	m["adjoint.param_eval_s"] = sens.Timing.ParamEval.Seconds()
	m["adjoint.degraded_steps"] = float64(len(sens.DegradedSteps))
	m["adjoint.windows_ran"] = float64(sens.Windows)
	// One sweep has no window imbalance to report.
	lo, hi := 0.0, 0.0
	for i, s := range sens.WindowSweepSec {
		if i == 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	m["adjoint.window_sweep_max_s"] = hi
	m["adjoint.window_sweep_min_s"] = lo
}
