package adjoint

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// windowCounts is the windowed property-test sweep: serial, small, the
// machine width, and more windows than steps (which must clamp, not fail).
// stepsPlus is the trajectory step count for the oversubscribed entry.
// MASC_ADJOINT_WINDOWS=a,b,c extends the list (the CI race matrix does).
func windowCounts(tb testing.TB, stepsPlus int) []int {
	ws := []int{1, 2, 3, runtime.NumCPU(), stepsPlus + 5}
	if env := os.Getenv("MASC_ADJOINT_WINDOWS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				tb.Fatalf("MASC_ADJOINT_WINDOWS: bad entry %q", f)
			}
			ws = append(ws, n)
		}
	}
	return ws
}

// TestWindowedSweepBitIdentical is the tentpole property test: for every
// fixture × integrator × window count × store kind, the windowed sweep must
// reproduce the serial sweep's DOdp bits exactly — including W greater than
// the step count (clamped) and W = 1 (the serial degenerate case).
func TestWindowedSweepBitIdentical(t *testing.T) {
	type fixture struct {
		name string
		tc   testCase
		trap bool
	}
	fixtures := []fixture{
		{"rc_ladder_be", cases()[0], false},
		{"bjt_amp_trap", cases()[2], true},
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
			mem := jactensor.NewMemStore()
			// Anchors are declared before the forward pass; estimate the
			// step count from the time grid to cut ~8 windows' worth.
			estSteps := int(opt.TStop/opt.TStep + 0.5)
			anchorEvery := estSteps / 8
			if anchorEvery < 1 {
				anchorEvery = 1
			}
			mkAnchored := func(async bool) *jactensor.CompressedStore {
				var cs *jactensor.CompressedStore
				if async {
					cs = jactensor.NewCompressedStoreAsync(
						masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
						ckt.JPat, ckt.CPat, 2)
				} else {
					cs = jactensor.NewCompressedStore(
						masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
						ckt.JPat, ckt.CPat)
				}
				cs.SetAnchorEvery(anchorEvery)
				return cs
			}
			// One anchored compressed store per windowed run (separate
			// stores keep the runs independent), all filled by a single
			// forward pass.
			winList := windowCounts(t, estSteps)
			comps := make([]*jactensor.CompressedStore, len(winList))
			for i := range comps {
				comps[i] = mkAnchored(i%2 == 1) // alternate sync/async workers
			}
			opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
				if err := mem.Put(step, J.Val, C.Val); err != nil {
					return err
				}
				for _, cs := range comps {
					if err := cs.Put(step, J.Val, C.Val); err != nil {
						return err
					}
				}
				return nil
			}
			res, err := transient.Run(ckt, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.EndForward(); err != nil {
				t.Fatal(err)
			}
			for _, cs := range comps {
				if err := cs.EndForward(); err != nil {
					t.Fatal(err)
				}
			}
			node, err := b.NodeIndex(fx.tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			objs := []Objective{
				{Name: "final", Node: node, Weight: 1},
				{Name: "mid", Node: node, Weight: 0.5, Step: res.Steps() / 2},
				{Name: "integral", Node: node, Weight: 2, Integral: true},
				{Name: "quarter", Node: node, Weight: -1, Step: res.Steps() / 4},
			}
			src := keepAll{mem}
			want, err := Sensitivities(ckt, res, src, objs, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for wi, W := range winList {
				// Generic (sharedSource) path over the memory store.
				got, err := Sensitivities(ckt, res, src, objs, Options{Windows: W})
				if err != nil {
					t.Fatalf("windows=%d mem: %v", W, err)
				}
				requireBitIdentical(t, fmt.Sprintf("windows=%d,mem", W), want, got)
				if W > 1 && got.Windows < 2 {
					t.Fatalf("windows=%d mem: engine fell back to serial (ran %d)", W, got.Windows)
				}
				if got.Windows > res.Steps()+1 {
					t.Fatalf("windows=%d mem: ran %d windows for %d steps (no clamp)", W, got.Windows, res.Steps())
				}
				if got.Windows > 1 && len(got.WindowSweepSec) != got.Windows {
					t.Fatalf("windows=%d mem: %d sweep timings for %d windows", W, len(got.WindowSweepSec), got.Windows)
				}
				// Sliced path over an anchored compressed store.
				got, err = Sensitivities(ckt, res, comps[wi], objs, Options{Windows: W})
				if err != nil {
					t.Fatalf("windows=%d compressed: %v", W, err)
				}
				requireBitIdentical(t, fmt.Sprintf("windows=%d,compressed", W), want, got)
				// Windowed-with-workers composition on one representative W.
				if W == 3 {
					got, err = Sensitivities(ckt, res, src, objs, Options{Windows: W, Workers: 2})
					if err != nil {
						t.Fatalf("windows=%d workers=2: %v", W, err)
					}
					requireBitIdentical(t, "windows=3,workers=2", want, got)
				}
			}
		})
	}
}

// windowedDegradedRun builds fresh fault-injected fixtures and sweeps them
// with W windows, returning the clean serial reference, the degraded
// generic-source run, and the degraded anchored-compressed run.
func windowedDegradedRun(t *testing.T, W int) (want, gotMem, gotComp *Result) {
	t.Helper()
	ckt, b := rcLadder(t)
	node, err := b.NodeIndex("n6")
	if err != nil {
		t.Fatal(err)
	}
	inMem := faultinject.New(faultinject.Profile{Seed: 11, BitFlipOneIn: 10})
	inComp := faultinject.New(faultinject.Profile{Seed: 13, BitFlipOneIn: 10})
	faultyMem := jactensor.NewMemStore()
	faultyMem.Attach(jactensor.Attachment{Fault: inMem})
	faultyComp := jactensor.NewCompressedStore(
		masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
		ckt.JPat, ckt.CPat)
	faultyComp.SetAnchorEvery(12)
	faultyComp.Attach(jactensor.Attachment{Fault: inComp})
	clean := jactensor.NewMemStore()
	opt := transient.Options{TStop: 2e-4, TStep: 2e-6}
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		if err := clean.Put(step, J.Val, C.Val); err != nil {
			return err
		}
		if err := faultyMem.Put(step, J.Val, C.Val); err != nil {
			return err
		}
		return faultyComp.Put(step, J.Val, C.Val)
	}
	res, err := transient.Run(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []jactensor.Store{clean, faultyMem, faultyComp} {
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
	}
	objs := []Objective{
		{Node: node, Weight: 1},
		{Node: node, Weight: 1, Integral: true},
	}
	want, err = Sensitivities(ckt, res, clean, objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotMem, err = Sensitivities(ckt, res, faultyMem, objs, Options{Windows: W})
	if err != nil {
		t.Fatalf("degraded mem sweep (windows=%d): %v", W, err)
	}
	gotComp, err = Sensitivities(ckt, res, faultyComp, objs, Options{Windows: W})
	if err != nil {
		t.Fatalf("degraded compressed sweep (windows=%d): %v", W, err)
	}
	if !inMem.Stats().Any() || !inComp.Stats().Any() {
		t.Fatal("injectors delivered no faults; test proves nothing")
	}
	if len(gotMem.DegradedSteps) == 0 {
		t.Fatal("mem faults were injected but no step degraded")
	}
	return want, gotMem, gotComp
}

// TestWindowedDegradedBitIdentical composes the windowed engine with the
// recompute-on-corruption ladder: with bit flips injected into both store
// kinds, every window count must still converge to the fault-free serial
// run's bits, and the degraded-step report must stay deduplicated and in
// sweep (descending) order even though several sweeps observe faults.
func TestWindowedDegradedBitIdentical(t *testing.T) {
	for _, W := range []int{2, 3, runtime.NumCPU() + 1} {
		want, gotMem, gotComp := windowedDegradedRun(t, W)
		requireBitIdentical(t, "degraded mem windows="+strconv.Itoa(W), want, gotMem)
		requireBitIdentical(t, "degraded compressed windows="+strconv.Itoa(W), want, gotComp)
		for _, r := range []*Result{gotMem, gotComp} {
			for i := 1; i < len(r.DegradedSteps); i++ {
				if r.DegradedSteps[i] >= r.DegradedSteps[i-1] {
					t.Fatalf("windows=%d: DegradedSteps %v not strictly descending", W, r.DegradedSteps)
				}
			}
		}
	}
}

// TestWindowedClampAndFallback pins the boundary edge cases: more windows
// than steps clamps to one step per window, and a compressed store without
// anchors cannot be sliced, so the engine falls back to the serial sweep
// instead of failing.
func TestWindowedClampAndFallback(t *testing.T) {
	ckt, b := rcLadder(t)
	node, _ := b.NodeIndex("n6")
	mem := jactensor.NewMemStore()
	plain := jactensor.NewCompressedStore( // no SetAnchorEvery: un-sliceable
		masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
		ckt.JPat, ckt.CPat)
	opt := transient.Options{TStop: 2e-5, TStep: 2e-6} // ~10 steps
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		if err := mem.Put(step, J.Val, C.Val); err != nil {
			return err
		}
		return plain.Put(step, J.Val, C.Val)
	}
	res, err := transient.Run(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.EndForward(); err != nil {
		t.Fatal(err)
	}
	if err := plain.EndForward(); err != nil {
		t.Fatal(err)
	}
	objs := []Objective{{Node: node, Weight: 1}}
	src := keepAll{mem}
	want, err := Sensitivities(ckt, res, src, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sensitivities(ckt, res, src, objs, Options{Windows: res.Steps() + 50})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "oversubscribed windows", want, got)
	if got.Windows > res.Steps()+1 {
		t.Fatalf("ran %d windows over %d steps: clamp failed", got.Windows, res.Steps())
	}
	if got.Windows < 2 {
		t.Fatalf("oversubscribed request fell back to serial (%d windows)", got.Windows)
	}
	got, err = Sensitivities(ckt, res, plain, objs, Options{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "un-anchored fallback", want, got)
	if got.Windows != 1 {
		t.Fatalf("un-anchored compressed store ran %d windows, want serial fallback", got.Windows)
	}
}

// failAt wraps a JacobianSource with a non-degradable error at one step —
// a mid-sweep interruption for the teardown test.
type failAt struct {
	JacobianSource
	step int
}

func (f failAt) Fetch(i int) ([]float64, []float64, error) {
	if i == f.step {
		return nil, nil, errors.New("synthetic mid-sweep failure")
	}
	return f.JacobianSource.Fetch(i)
}

func (f failAt) Release(int) {}

// TestWindowedInterruptTeardown pins the failure mode: a non-degradable
// fetch error in one window must abort every concurrent sweep, surface the
// root cause (not the casualties' abort sentinel), and leave no goroutine
// touching the store after return — the race detector enforces the latter.
func TestWindowedInterruptTeardown(t *testing.T) {
	ckt, b := rcLadder(t)
	node, _ := b.NodeIndex("n6")
	mem := jactensor.NewMemStore()
	res, err := transient.Run(ckt, captureInto(transient.Options{TStop: 2e-4, TStep: 2e-6}, mem))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.EndForward(); err != nil {
		t.Fatal(err)
	}
	objs := []Objective{{Node: node, Weight: 1}}
	// Fail inside window 0's range so the seeding sweep has finished its
	// own descent and sibling windows are mid-flight when the error lands.
	src := failAt{JacobianSource: keepAll{mem}, step: 2}
	_, err = Sensitivities(ckt, res, src, objs, Options{Windows: 4, Workers: 2})
	if err == nil {
		t.Fatal("windowed sweep over failing source succeeded")
	}
	if !strings.Contains(err.Error(), "synthetic mid-sweep failure") {
		t.Fatalf("error lost the root cause: %v", err)
	}
	// The engine must be reusable after the teardown: a healthy windowed
	// sweep over the same store still matches serial.
	want, err := Sensitivities(ckt, res, keepAll{mem}, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sensitivities(ckt, res, keepAll{mem}, objs, Options{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "post-teardown windowed", want, got)
}

// TestWindowedOnUntouchedPattern runs the windowed, overlapped engine on a
// circuit nothing has factored yet — the shape of a resumed run whose
// forward pass happened in another process — so the reverse pass is what
// first asks the Jacobian pattern for its lazily built column view. Run
// under -race in CI.
func TestWindowedOnUntouchedPattern(t *testing.T) {
	tc := cases()[0]
	twin, b := tc.build(t)
	res, err := transient.Run(twin, tc.opt)
	if err != nil {
		t.Fatal(err)
	}
	node, err := b.NodeIndex(tc.obj)
	if err != nil {
		t.Fatal(err)
	}
	objs := []Objective{
		{Name: "final", Node: node, Weight: 1},
		{Name: "integral", Node: node, Weight: 2, Integral: true},
	}
	want, err := Sensitivities(twin, res, NewRecomputeSource(twin, res), objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Options{{Windows: 3}, {Windows: 3, Workers: 2}, {Windows: 2, Workers: 3}} {
		fresh, _ := tc.build(t)
		got, err := Sensitivities(fresh, res, NewRecomputeSource(fresh, res), objs, cfg)
		if err != nil {
			t.Fatalf("W=%d workers=%d: %v", cfg.Windows, cfg.Workers, err)
		}
		if got.Windows != cfg.Windows {
			t.Fatalf("W=%d: ran with %d windows", cfg.Windows, got.Windows)
		}
		requireBitIdentical(t, fmt.Sprintf("W=%d workers=%d", cfg.Windows, cfg.Workers), want, got)
	}
}
