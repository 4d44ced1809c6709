package adjoint

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"masc/internal/circuit"
	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// workerCounts is the property-test sweep: serial, small, the machine
// width, and oversubscribed. MASC_ADJOINT_WORKERS=a,b,c extends the list.
// Each distinct count appears once, in first-seen order.
func workerCounts(tb testing.TB) []int {
	ws := []int{1, 2, runtime.NumCPU(), runtime.NumCPU() + 3}
	if env := os.Getenv("MASC_ADJOINT_WORKERS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				tb.Fatalf("MASC_ADJOINT_WORKERS: bad entry %q", f)
			}
			ws = append(ws, n)
		}
	}
	var out []int
	for _, w := range ws {
		if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// TestWorkerCountsAreDistinct: a count the machine width or
// MASC_ADJOINT_WORKERS repeats runs once, where it first appears.
func TestWorkerCountsAreDistinct(t *testing.T) {
	n := runtime.NumCPU()
	t.Setenv("MASC_ADJOINT_WORKERS", fmt.Sprintf("%d,2,%d,9", n+3, n+9))
	want := []int{1, 2}
	for _, w := range []int{n, n + 3, n + 9, 9} {
		if !slices.Contains(want, w) {
			want = append(want, w)
		}
	}
	if got := workerCounts(t); !slices.Equal(got, want) {
		t.Fatalf("workerCounts = %v, want %v", got, want)
	}
}

// requireBitIdentical asserts two DOdp matrices match bit for bit.
func requireBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.DOdp) != len(got.DOdp) {
		t.Fatalf("%s: objective count %d != %d", label, len(got.DOdp), len(want.DOdp))
	}
	for o := range want.DOdp {
		for k := range want.DOdp[o] {
			if math.Float64bits(want.DOdp[o][k]) != math.Float64bits(got.DOdp[o][k]) {
				t.Fatalf("%s: obj %d param %d: %g != serial %g (not bit-identical)",
					label, o, k, got.DOdp[o][k], want.DOdp[o][k])
			}
		}
	}
}

// TestParallelSweepBitIdentical is the tentpole property test: for every
// circuit family, integrator, objective mix, and worker count (including
// oversubscription), the sharded sweep must reproduce the one-worker sweep's
// bits exactly.
func TestParallelSweepBitIdentical(t *testing.T) {
	type fixture struct {
		name string
		tc   testCase
		trap bool
	}
	fixtures := []fixture{
		{"rc_ladder_be", cases()[0], false},
		{"diode_rectifier_be", cases()[1], false},
		{"bjt_amp_trap", cases()[2], true},
		{"mos_inverter_be", cases()[3], false},
		{"rlc_tank_trap", cases()[4], true},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			ckt, b := fx.tc.build(t)
			opt := fx.tc.opt
			if fx.trap {
				opt.Method = transient.MethodTrap
			}
			store := jactensor.NewMemStore()
			res, err := transient.Run(ckt, captureInto(opt, store))
			if err != nil {
				t.Fatal(err)
			}
			if err := store.EndForward(); err != nil {
				t.Fatal(err)
			}
			node, err := b.NodeIndex(fx.tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			// Final-step, interior-step, and integral objectives: solving
			// several systems per step exercises the blocked kernel with
			// k > 1, and the interior anchors exercise sourceAt off the
			// final step.
			objs := []Objective{
				{Name: "final", Node: node, Weight: 1},
				{Name: "mid", Node: node, Weight: 0.5, Step: res.Steps() / 2},
				{Name: "integral", Node: node, Weight: 2, Integral: true},
				{Name: "quarter", Node: node, Weight: -1, Step: res.Steps() / 4},
			}
			src := keepAll{store}
			want, err := Sensitivities(ckt, res, src, objs, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts(t) {
				got, err := Sensitivities(ckt, res, src, objs, Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				requireBitIdentical(t, "workers="+strconv.Itoa(w), want, got)
			}
		})
	}
}

// degradedRun builds a fresh fault-injected fixture and sweeps it with the
// given worker count, returning the clean serial reference and the
// degraded run. Fresh stores per call: the degradation ladder repairs the
// store it walks, so reuse would stop exercising it.
func degradedRun(t *testing.T, workers int, compressed bool) (*Result, *Result) {
	t.Helper()
	// The compressed store runs the diode rectifier, whose tensors move: a
	// linear circuit's chain is all repeats and holds no blob to rot.
	tc := cases()[0]
	if compressed {
		tc = cases()[1]
	}
	ckt, b := tc.build(t)
	node, err := b.NodeIndex(tc.obj)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Profile{Seed: 11, BitFlipOneIn: 10})
	var faulty jactensor.Store
	if compressed {
		st := jactensor.NewCompressedStore(
			masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
			ckt.JPat, ckt.CPat)
		st.Attach(jactensor.Attachment{Fault: in})
		faulty = st
	} else {
		st := jactensor.NewMemStore()
		st.Attach(jactensor.Attachment{Fault: in})
		faulty = st
	}
	clean := jactensor.NewMemStore()
	opt := tc.opt
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		if err := clean.Put(step, J.Val, C.Val); err != nil {
			return err
		}
		return faulty.Put(step, J.Val, C.Val)
	}
	res, err := transient.Run(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.EndForward(); err != nil {
		t.Fatal(err)
	}
	if err := faulty.EndForward(); err != nil {
		t.Fatal(err)
	}
	objs := []Objective{
		{Node: node, Weight: 1},
		{Node: node, Weight: 1, Integral: true},
	}
	want, err := Sensitivities(ckt, res, clean, objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sensitivities(ckt, res, faulty, objs, Options{Workers: workers})
	if err != nil {
		t.Fatalf("degraded sweep (workers=%d) failed: %v", workers, err)
	}
	if !in.Stats().Any() {
		t.Fatal("injector delivered no faults; test proves nothing")
	}
	if len(got.DegradedSteps) == 0 {
		t.Fatal("faults were injected but no step degraded")
	}
	return want, got
}

// TestParallelDegradedBitIdentical composes the engine with the PR-4 fault
// tolerance: with bit flips injected into the store, the parallel sweep
// must still walk the degradation ladder (now on the fetcher goroutine)
// and finish bit-identical to the fault-free serial run.
func TestParallelDegradedBitIdentical(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		name := "mem"
		if compressed {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			for _, w := range workerCounts(t) {
				want, got := degradedRun(t, w, compressed)
				requireBitIdentical(t, "workers="+strconv.Itoa(w), want, got)
			}
		})
	}
}

// TestSweepAndCodecShareThePool: the reverse sweep's shards and masczip's
// row chunks run on one process-wide pool. A three-worker sweep over a chain
// coded in three row chunks, and a three-chunk encode/decode loop running
// beside it, each give the bits they give alone.
func TestSweepAndCodecShareThePool(t *testing.T) {
	tc := cases()[2] // the BJT amplifier: rows for three chunks, and tensors that move, so the chain codes blobs
	ckt, b := tc.build(t)
	node, err := b.NodeIndex(tc.obj)
	if err != nil {
		t.Fatal(err)
	}
	mem := jactensor.NewMemStore()
	var frames [][]float64 // every step's J, for the codec loop
	opt := tc.opt
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		frames = append(frames, slices.Clone(J.Val))
		return mem.Put(step, J.Val, C.Val)
	}
	res, err := transient.Run(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.EndForward(); err != nil {
		t.Fatal(err)
	}
	objs := []Objective{
		{Node: node, Weight: 1},
		{Node: node, Weight: 0.5, Step: res.Steps() / 2},
		{Node: node, Weight: 2, Integral: true},
	}
	want, err := Sensitivities(ckt, res, keepAll{mem}, objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	chunked := masczip.Options{Workers: 3}
	chain := jactensor.NewCompressedStore(masczip.New(ckt.JPat, chunked), masczip.New(ckt.CPat, chunked), ckt.JPat, ckt.CPat)
	t.Cleanup(func() { chain.Close() })
	for i := 0; i <= res.Steps(); i++ {
		jv, cv, err := mem.Fetch(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Put(i, jv, cv); err != nil {
			t.Fatal(err)
		}
	}
	if err := chain.EndForward(); err != nil {
		t.Fatal(err)
	}

	// codecLoop codes every frame against the one before it and decodes it
	// back, returning the blobs.
	codecLoop := func() ([][]byte, error) {
		c := masczip.New(ckt.JPat, chunked)
		out := make([]float64, ckt.JPat.NNZ())
		var blobs [][]byte
		for i := 1; i < len(frames); i++ {
			blob := c.Compress(nil, frames[i], frames[i-1])
			if err := c.Decompress(out, blob, frames[i-1]); err != nil {
				return nil, fmt.Errorf("step %d: %w", i, err)
			}
			for k := range out {
				if math.Float64bits(out[k]) != math.Float64bits(frames[i][k]) {
					return nil, fmt.Errorf("step %d: value %d decoded as %g, coded %g", i, k, out[k], frames[i][k])
				}
			}
			blobs = append(blobs, blob)
		}
		return blobs, nil
	}
	alone, err := codecLoop()
	if err != nil {
		t.Fatal(err)
	}

	var (
		got      *Result
		sweepErr error
		swept    atomic.Bool
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer swept.Store(true)
		got, sweepErr = Sensitivities(ckt, res, chain, objs, Options{Workers: 3})
	}()
	// Keep the codec busy on the pool until the sweep is done.
	var codecErr error
	for rounds := 0; codecErr == nil && (rounds == 0 || !swept.Load()); rounds++ {
		blobs, err := codecLoop()
		for i := 0; err == nil && i < len(alone); i++ {
			if !bytes.Equal(blobs[i], alone[i]) {
				err = fmt.Errorf("blob %d differs from the loop run alone", i)
			}
		}
		if err != nil {
			codecErr = fmt.Errorf("codec loop beside the sweep, round %d: %w", rounds, err)
		}
	}
	wg.Wait()
	if codecErr != nil {
		t.Fatal(codecErr)
	}
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	requireBitIdentical(t, "workers=3 beside the codec", want, got)
}

// TestSweepErrorTeardown pins the overlap path's failure mode: a
// non-degradable fetch error must surface as an error (not a hang or a
// panic), with the fetcher goroutine fully drained.
func TestSweepErrorTeardown(t *testing.T) {
	ckt, b := rcLadder(t)
	node, _ := b.NodeIndex("n6")
	store := jactensor.NewMemStore()
	res, err := transient.Run(ckt, captureInto(transient.Options{TStop: 2e-4, TStep: 2e-6}, store))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EndForward(); err != nil {
		t.Fatal(err)
	}
	// Sweep once to exhaustion: every step is released, so a second sweep
	// fails its very first (non-degradable) fetch.
	objs := []Objective{{Node: node, Weight: 1}}
	if _, err := Sensitivities(ckt, res, store, objs, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sensitivities(ckt, res, store, objs, Options{Workers: 4}); err == nil {
		t.Fatal("second sweep over a released store should fail")
	}
}

// beganSource announces each Fetch as it begins.
type beganSource struct {
	JacobianSource
	begun chan int // buffered for every fetch of the sweep, so Fetch never blocks on it
}

func (b *beganSource) Fetch(i int) ([]float64, []float64, error) {
	b.begun <- i
	return b.JacobianSource.Fetch(i)
}

// sweepSources builds, for the forward run of runForward's circuit, every
// kind of source a sweep reads (J, C) from: a memory store, recomputation,
// and a masczip chain in sync and in async mode. Each call builds fresh
// ones, for a chain is consumed by its sweep.
func sweepSources(t *testing.T) (ckt *circuit.Circuit, res *transient.Result, objs []Objective, build map[string]func() JacobianSource) {
	t.Helper()
	ckt, res, mem, objs := runForward(t)
	chain := func(async bool) func() JacobianSource {
		return func() JacobianSource {
			jc, cc := masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{})
			st := jactensor.NewCompressedStore(jc, cc, ckt.JPat, ckt.CPat)
			if async {
				st = jactensor.NewCompressedStoreAsync(jc, cc, ckt.JPat, ckt.CPat, 0)
			}
			t.Cleanup(func() { st.Close() })
			for i := 0; i <= res.Steps(); i++ {
				jv, cv, err := mem.Fetch(i)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Put(i, jv, cv); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			return st
		}
	}
	return ckt, res, objs, map[string]func() JacobianSource{
		"memory":     func() JacobianSource { return mem },
		"recompute":  func() JacobianSource { return NewRecomputeSource(ckt, res) },
		"masc":       chain(false),
		"masc-async": chain(true),
	}
}

// TestEverySourceIsSweptByTheFetcher: the sweep reads every source through
// its fetcher goroutine at every worker count, one worker (and the zero
// value) included, so Fetch(i−1) begins while the sweep still holds step i —
// checked where step i's fetch span ends on the sweep's goroutine, before
// step i's work begins, by waiting (boundedly) for Fetch(i−1) to begin. Every
// run gives the one-worker memory sweep's bits.
func TestEverySourceIsSweptByTheFetcher(t *testing.T) {
	ckt, res, objs, sources := sweepSources(t)
	want, err := Sensitivities(ckt, res, sources["memory"](), objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"memory", "recompute", "masc", "masc-async"} {
		for _, w := range append([]int{0}, workerCounts(t)...) {
			label := fmt.Sprintf("%s/workers=%d", name, w)
			t.Run(label, func(t *testing.T) {
				bs := &beganSource{JacobianSource: sources[name](), begun: make(chan int, res.Steps()+1)}
				low := res.Steps() + 1 // the lowest step whose Fetch has begun
				var faults []string    // the sink's first, on the sweep's goroutine
				rec := span.NewRecorder(0)
				rec.SetSink(func(s *span.Record) {
					if s.Kind != span.Fetch || s.Step < 1 || len(faults) > 0 {
						return
					}
					i := int(s.Step)
					timeout := time.After(10 * time.Second)
					for low > i-1 {
						select {
						case j := <-bs.begun:
							low = min(low, j)
						case <-timeout:
							faults = append(faults, fmt.Sprintf("Fetch(%d) did not begin while the sweep held step %d", i-1, i))
							return
						}
					}
				})
				got, err := Sensitivities(ckt, res, bs, objs, Options{Workers: w,
					Obs: &obs.Observer{Reg: obs.NewRegistry(), Spans: rec}})
				if err != nil {
					t.Fatal(err)
				}
				if len(faults) > 0 {
					t.Fatal(faults[0])
				}
				requireBitIdentical(t, label, want, got)
			})
		}
	}
}

// callLog records a source's Fetch and Release calls in the order they
// begin, and fails a call that begins while another is still running.
type callLog struct {
	JacobianSource
	mu      sync.Mutex
	calls   []string
	running atomic.Int32
	overlap atomic.Bool
}

func (c *callLog) enter(call string) {
	if c.running.Add(1) > 1 {
		c.overlap.Store(true)
	}
	c.mu.Lock()
	c.calls = append(c.calls, call)
	c.mu.Unlock()
}

func (c *callLog) Fetch(i int) ([]float64, []float64, error) {
	c.enter(fmt.Sprintf("Fetch(%d)", i))
	defer c.running.Add(-1)
	return c.JacobianSource.Fetch(i)
}

func (c *callLog) Release(i int) {
	c.enter(fmt.Sprintf("Release(%d)", i))
	defer c.running.Add(-1)
	c.JacobianSource.Release(i)
}

// TestSourceCallOrderIsWorkerIndependent pins what the store's accounting
// rests on: whatever the worker count, the source sees Fetch(n), Fetch(n−1),
// Release(n), …, Fetch(0), Release(1), Release(0), one call at a time — so
// what a store holds, and its PeakResident, cannot depend on Workers.
func TestSourceCallOrderIsWorkerIndependent(t *testing.T) {
	ckt, res, objs, sources := sweepSources(t)
	n := res.Steps()
	want := []string{fmt.Sprintf("Fetch(%d)", n)}
	for i := n - 1; i >= 0; i-- {
		want = append(want, fmt.Sprintf("Fetch(%d)", i), fmt.Sprintf("Release(%d)", i+1))
	}
	want = append(want, "Release(0)")
	for _, name := range []string{"memory", "masc", "masc-async"} {
		for _, w := range []int{1, 2, 3} {
			log := &callLog{JacobianSource: sources[name]()}
			if _, err := Sensitivities(ckt, res, log, objs, Options{Workers: w}); err != nil {
				t.Fatalf("%s/workers=%d: %v", name, w, err)
			}
			if log.overlap.Load() {
				t.Fatalf("%s/workers=%d: two source calls ran at once", name, w)
			}
			if !slices.Equal(log.calls, want) {
				t.Fatalf("%s/workers=%d: %d calls %v…, want %d calls %v…",
					name, w, len(log.calls), log.calls[:min(6, len(log.calls))], len(want), want[:6])
			}
		}
	}
}
