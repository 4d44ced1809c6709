package masc

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"masc/internal/obs/span"
	"masc/internal/workload"
)

func buildTestCircuit(t testing.TB) (*Circuit, *Builder, Objective) {
	b := NewBuilder()
	b.AddVSource("vin", "in", "0", Sin{VA: 1, Freq: 5e3})
	b.AddResistor("r1", "in", "mid", 1e3)
	b.AddCapacitor("c1", "mid", "0", 1e-8)
	b.AddDiode("d1", "mid", "out")
	b.AddResistor("r2", "out", "0", 5e3)
	b.AddCapacitor("c2", "out", "0", 2e-8)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.NodeIndex("out")
	if err != nil {
		t.Fatal(err)
	}
	return ckt, b, Objective{Name: "v(out)", Node: out, Weight: 1}
}

func TestSimulateAllStorages(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}}
	var ref *Run
	for _, st := range []Storage{StorageRecompute, StorageMemory, StorageDisk, StorageMASC} {
		opt.Storage = st
		run, err := Simulate(ckt, opt, []Objective{obj}, nil)
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if run.Sens == nil || len(run.Sens.DOdp) != 1 {
			t.Fatalf("%s: missing sensitivities", st)
		}
		if ref == nil {
			ref = run
			continue
		}
		for k := range run.Sens.DOdp[0] {
			a, b := run.Sens.DOdp[0][k], ref.Sens.DOdp[0][k]
			if d := math.Abs(a - b); d > 1e-9*math.Max(1, math.Abs(b)) {
				t.Fatalf("%s: sensitivity %d diverges: %g vs %g", st, k, a, b)
			}
		}
		if st == StorageMASC {
			if run.TensorStats.StoredBytes >= run.TensorStats.RawBytes {
				t.Fatalf("%s: no compression: %+v", st, run.TensorStats)
			}
		}
	}
}

func TestSimulateAsyncMatchesSync(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	sync, err := Simulate(ckt, SimOptions{
		Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: StorageMASC,
	}, []Objective{obj}, nil)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	async, err := Simulate(ckt, SimOptions{
		Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: StorageMASC, Async: true,
	}, []Objective{obj}, nil)
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	// Pipelining reorders work, never results: same compressed size,
	// bit-identical sensitivities.
	if sync.TensorStats.StoredBytes != async.TensorStats.StoredBytes {
		t.Fatalf("stored bytes diverge: sync %d async %d",
			sync.TensorStats.StoredBytes, async.TensorStats.StoredBytes)
	}
	for k := range sync.Sens.DOdp[0] {
		a, b := sync.Sens.DOdp[0][k], async.Sens.DOdp[0][k]
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("sensitivity %d diverges: %g vs %g", k, a, b)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	if _, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 1e-6, TStop: 1e-5}}, nil, nil); err == nil {
		t.Fatal("expected error without objectives")
	}
	if _, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 1e-6, TStop: 1e-5}, Storage: "bogus"}, []Objective{obj}, nil); err == nil {
		t.Fatal("expected error for unknown storage")
	}
	if _, err := Simulate(ckt, SimOptions{}, []Objective{obj}, nil); err == nil {
		t.Fatal("expected error for missing time axis")
	}
}

func TestParseNetlistFacade(t *testing.T) {
	deck, err := ParseNetlist(strings.NewReader("t\nV1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1u\n.tran 1u 100u\n.obj v(b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(deck.Ckt, SimOptions{
		Transient: TransientOptions{TStep: deck.Tran.TStep, TStop: deck.Tran.TStop}, Storage: StorageMASC,
	}, deck.Objectives, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Tran.Steps() < 50 {
		t.Fatalf("only %d steps", run.Tran.Steps())
	}
}

func TestDirectMatchesAdjointFacade(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	run, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 2e-4}, Storage: StorageMemory}, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := DirectSensitivities(ckt, run.Tran, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range dir.DOdp[0] {
		a, b := run.Sens.DOdp[0][k], dir.DOdp[0][k]
		if d := math.Abs(a - b); d > 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) {
			t.Fatalf("param %d: adjoint %g vs direct %g", k, a, b)
		}
	}
}

// TestSimulateAdjointWorkersBitIdentical pins the facade contract of
// SimOptions.AdjointWorkers: the sharded reverse sweep (dF/dp and the RHS
// builds across workers) must reproduce the one-worker sweep's
// sensitivities bit for bit, on both raw and compressed storage.
func TestSimulateAdjointWorkersBitIdentical(t *testing.T) {
	ckt, b, obj := buildTestCircuit(t)
	mid, err := b.NodeIndex("mid")
	if err != nil {
		t.Fatal(err)
	}
	objs := []Objective{obj, {Name: "int_v(mid)", Node: mid, Weight: 1, Integral: true}}
	for _, st := range []Storage{StorageMemory, StorageMASC} {
		serial, err := Simulate(ckt, SimOptions{
			Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: st,
		}, objs, nil)
		if err != nil {
			t.Fatalf("%s serial: %v", st, err)
		}
		for _, w := range []int{2, 5} {
			par, err := Simulate(ckt, SimOptions{
				Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: st, AdjointWorkers: w,
			}, objs, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", st, w, err)
			}
			for o := range serial.Sens.DOdp {
				for k := range serial.Sens.DOdp[o] {
					a, bv := serial.Sens.DOdp[o][k], par.Sens.DOdp[o][k]
					if math.Float64bits(a) != math.Float64bits(bv) {
						t.Fatalf("%s workers=%d: obj %d sens %d diverges: %g vs %g", st, w, o, k, bv, a)
					}
				}
			}
		}
	}
}

// TestPeakResidentIndependentOfAdjointWorkers: the sweep's fetcher makes the
// same store calls in the same order at every worker count, so a MASC run's
// stored bytes and PeakResident are equal at one and two adjoint workers —
// without a budget, and under one that binds (some steps kept, some dropped).
func TestPeakResidentIndependentOfAdjointWorkers(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	base := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 2e-4}, Storage: StorageMASC}
	chain, err := Simulate(ckt, base, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, BudgetReserve(ckt) + chain.TensorStats.StoredBytes/2} {
		var ref *TensorStats
		for _, workers := range []int{1, 2} {
			opt := base
			opt.MemBudgetBytes = budget
			opt.AdjointWorkers = workers
			run, err := Simulate(ckt, opt, []Objective{obj}, nil)
			if err != nil {
				t.Fatalf("budget=%d workers=%d: %v", budget, workers, err)
			}
			s := &run.TensorStats
			if budget > 0 && (s.TierKeptSteps == 0 || s.TierDroppedSteps == 0) {
				t.Fatalf("budget=%d: kept %d, dropped %d steps; want a budget that binds", budget, s.TierKeptSteps, s.TierDroppedSteps)
			}
			if ref == nil {
				ref = s
				continue
			}
			if s.PeakResident != ref.PeakResident || s.StoredBytes != ref.StoredBytes {
				t.Fatalf("budget=%d: workers=2 peak %d B, stored %d B; workers=1 peak %d B, stored %d B",
					budget, s.PeakResident, s.StoredBytes, ref.PeakResident, ref.StoredBytes)
			}
		}
	}
}

// TestSimulateAdjointWindowsBitIdentical pins the facade contract of the
// retired SimOptions.AdjointWindows: whatever it holds (the old auto width
// -1 included, and composed with AdjointWorkers), one reverse sweep runs over
// the same store — the single-sweep sensitivities bit for bit, one window
// reported, and on compressed storage the same stored bytes and peak as the
// W = 0 run, so no anchor cuts the chain.
func TestSimulateAdjointWindowsBitIdentical(t *testing.T) {
	ckt, b, obj := buildTestCircuit(t)
	mid, err := b.NodeIndex("mid")
	if err != nil {
		t.Fatal(err)
	}
	objs := []Objective{obj, {Name: "int_v(mid)", Node: mid, Weight: 1, Integral: true}}
	for _, st := range []Storage{StorageMemory, StorageMASC} {
		for _, workers := range []int{0, 2} {
			var ref *Run
			for _, W := range []int{0, -1, 2, 4} {
				run, err := Simulate(ckt, SimOptions{
					Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: st,
					AdjointWindows: W, AdjointWorkers: workers,
				}, objs, nil)
				if err != nil {
					t.Fatalf("%s windows=%d workers=%d: %v", st, W, workers, err)
				}
				if run.Sens.Windows != 1 || run.Sens.WindowSweepSec != nil {
					t.Fatalf("%s windows=%d workers=%d: %d windows, sweep times %v; want 1 and none",
						st, W, workers, run.Sens.Windows, run.Sens.WindowSweepSec)
				}
				if ref == nil {
					ref = run
					continue
				}
				sameBits(t, fmt.Sprintf("%s windows=%d workers=%d", st, W, workers), run.Sens.DOdp, ref.Sens.DOdp)
				if run.TensorStats.StoredBytes != ref.TensorStats.StoredBytes ||
					run.TensorStats.PeakResident != ref.TensorStats.PeakResident {
					t.Fatalf("%s windows=%d workers=%d: stored %d B, peak %d B; the W = 0 run stored %d B, peak %d B",
						st, W, workers, run.TensorStats.StoredBytes, run.TensorStats.PeakResident,
						ref.TensorStats.StoredBytes, ref.TensorStats.PeakResident)
				}
			}
		}
	}
}

// TestSimulateMemBudgetBitIdentical is the facade half of the budget suite:
// for every storage strategy a budget makes the MASC chain × integrator ×
// budget (from one the chain fits under to one below its windows' reserve)
// × adjoint workers, the budgeted run reproduces the unbudgeted StorageMemory
// run's sensitivities bit for bit with no degraded step; the kept steps and
// the dropped ones sum to the run's steps, and every dropped step is
// recomputed once; and PeakResident stays within the budget and one frame in
// flight — at least two frames, since the sweep holds the step above the one
// it fetches — at every worker count, for the fetcher's copies are the
// sweep's, not the store's. MASC_MEM_BUDGET=a,b,c (ParseByteSize values) extends the budgets —
// the CI budget-sweep matrix drives it.
func TestSimulateMemBudgetBitIdentical(t *testing.T) {
	ckt, b, obj := buildTestCircuit(t)
	mid, err := b.NodeIndex("mid")
	if err != nil {
		t.Fatal(err)
	}
	objs := []Objective{obj, {Name: "int_v(mid)", Node: mid, Weight: 1, Integral: true}}
	for _, method := range []Method{MethodBE, MethodTrap} {
		base := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 2e-4}, Storage: StorageMemory}
		base.Transient.Method = method
		ref, err := Simulate(ckt, base, objs, nil)
		if err != nil {
			t.Fatalf("%v memory: %v", method, err)
		}
		base.Storage = StorageMASC
		chain, err := Simulate(ckt, base, objs, nil)
		if err != nil {
			t.Fatalf("%v masc: %v", method, err)
		}
		peak := chain.TensorStats.PeakResident
		frame := ref.TensorStats.RawBytes / int64(ref.TensorStats.Steps)
		budgets := []int64{2 * peak, peak * 3 / 4, peak / 2, peak / 4, frame}
		if env := os.Getenv("MASC_MEM_BUDGET"); env != "" {
			for _, f := range strings.Split(env, ",") {
				n, perr := ParseByteSize(f)
				if perr != nil {
					t.Fatalf("MASC_MEM_BUDGET: %v", perr)
				}
				budgets = append(budgets, n)
			}
		}
		split := false
		for _, st := range []Storage{StorageMemory, StorageMASC} {
			for _, budget := range budgets {
				for _, workers := range []int{0, 2} {
					label := fmt.Sprintf("%s/%v budget=%d wk=%d", st, method, budget, workers)
					opt := base
					opt.Storage = st
					opt.MemBudgetBytes = budget
					opt.AdjointWorkers = workers
					run, err := Simulate(ckt, opt, objs, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameBits(t, label, run.Sens.DOdp, ref.Sens.DOdp)
					s := run.TensorStats
					if s.BudgetBytes != budget || s.TierKeptSteps+s.TierDroppedSteps != s.Steps || s.TierRecomputes != int64(s.TierDroppedSteps) {
						t.Fatalf("%s: %+v", label, s)
					}
					split = split || s.TierKeptSteps > 0 && s.TierDroppedSteps > 0
					if limit := max(budget, frame) + frame; s.PeakResident > limit {
						t.Fatalf("%s: PeakResident %d over %d, the budget and the frames in flight", label, s.PeakResident, limit)
					}
					if budget >= 2*peak && (s.TierDroppedSteps != 0 || s.StoredBytes != chain.TensorStats.StoredBytes) {
						t.Fatalf("%s: a budget the chain fits under dropped %d steps and stored %d B, the chain %d B",
							label, s.TierDroppedSteps, s.StoredBytes, chain.TensorStats.StoredBytes)
					}
					if len(run.Sens.DegradedSteps) != 0 {
						t.Fatalf("%s: planned drops leaked into DegradedSteps: %v", label, run.Sens.DegradedSteps)
					}
				}
			}
		}
		if !split {
			t.Fatalf("%v: no budget kept some steps and dropped the rest (chain peak %d B, frame %d B)", method, peak, frame)
		}
	}
}

// TestSimulateBudgetAsyncMatchesSync: under a budget that keeps some steps
// and drops the rest, the pipelined chain keeps the same steps and stores
// the same bytes as the synchronous one, and both give the unbudgeted run's
// sensitivities bit for bit — the codec statistics included, which a
// budget no longer turns off.
func TestSimulateBudgetAsyncMatchesSync(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: StorageMASC, CollectCodecStats: true}
	ref, err := Simulate(ckt, opt, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.MemBudgetBytes = ref.TensorStats.PeakResident / 2
	var runs [2]*Run
	for i, async := range []bool{false, true} {
		o := opt
		o.Async = async
		if runs[i], err = Simulate(ckt, o, []Objective{obj}, nil); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		sameBits(t, fmt.Sprintf("async=%v", async), runs[i].Sens.DOdp, ref.Sens.DOdp)
		if !runs[i].HasCodecStats {
			t.Fatalf("async=%v: no codec statistics under a budget", async)
		}
	}
	s, a := runs[0].TensorStats, runs[1].TensorStats
	if s.TierKeptSteps == 0 || s.TierDroppedSteps == 0 {
		t.Fatalf("the budget does not split the chain: %+v", s)
	}
	if a.StoredBytes != s.StoredBytes || a.TierKeptSteps != s.TierKeptSteps || a.TierRecomputes != s.TierRecomputes {
		t.Fatalf("async kept %d steps in %d B with %d recomputes; sync %d in %d B with %d",
			a.TierKeptSteps, a.StoredBytes, a.TierRecomputes, s.TierKeptSteps, s.StoredBytes, s.TierRecomputes)
	}
	if !reflect.DeepEqual(runs[1].CodecStatsG, runs[0].CodecStatsG) || !reflect.DeepEqual(runs[1].CodecStatsC, runs[0].CodecStatsC) {
		t.Fatal("async and sync codec statistics differ")
	}
}

// TestSimulateBudgetCountsCoverEveryStep: a budgeted run reports what it kept.
// Its kept and dropped step counts sum to the run's steps, and a budget of
// half the unbudgeted peak keeps some steps and drops the rest. The sweep has
// released every step by the time Simulate reads the store's stats, so counts
// of the live steps would report none.
func TestSimulateBudgetCountsCoverEveryStep(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	opt := SimOptions{Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4}, Storage: StorageMASC}
	ref, err := Simulate(ckt, opt, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.MemBudgetBytes = ref.TensorStats.PeakResident / 2
	run, err := Simulate(ckt, opt, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := run.TensorStats
	if st.TierKeptSteps+st.TierDroppedSteps != st.Steps || st.TierKeptSteps == 0 || st.TierDroppedSteps == 0 {
		t.Fatalf("%d kept + %d dropped steps for %d steps", st.TierKeptSteps, st.TierDroppedSteps, st.Steps)
	}
}

// TestSimulateBudgetPlacementReproducible runs one budgeted MOS_T7
// simulation twice on the wall clock, under the windows' reserve and half of
// what the unbudgeted chain stores, so the chain keeps a prefix and drops the
// rest.
// Admission depends on frame and blob sizes alone, so the two runs record the
// same one decision — the first dropped step, with the sizes that refused it,
// the reserve among them BudgetReserve's — keep the same steps, store the same bytes, peak at the same resident
// bytes and recompute the same steps.
func TestSimulateBudgetPlacementReproducible(t *testing.T) {
	ds, err := workload.Build("MOS_T7", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opt := SimOptions{Transient: ds.Tran, Storage: StorageMASC}
	ref, err := Simulate(ds.Ckt, opt, ds.Objectives, ds.Params)
	if err != nil {
		t.Fatal(err)
	}
	opt.MemBudgetBytes = BudgetReserve(ds.Ckt) + ref.TensorStats.StoredBytes/2
	type decision struct {
		step  int
		attrs []span.Attr
	}
	run := func() (*Run, []decision) {
		var mu sync.Mutex
		var decided []decision
		rec := NewSpanRecorder(0)
		rec.SetSink(func(r *span.Record) {
			if r.Kind == span.TierDecision {
				mu.Lock()
				decided = append(decided, decision{int(r.Step), append([]span.Attr(nil), r.AttrList()...)})
				mu.Unlock()
			}
		})
		o := opt
		o.Obs = &Observer{Spans: rec}
		run, err := Simulate(ds.Ckt, o, ds.Objectives, ds.Params)
		if err != nil {
			t.Fatal(err)
		}
		return run, decided
	}
	a, decidedA := run()
	b, decidedB := run()
	sa, sb := a.TensorStats, b.TensorStats
	if len(decidedA) != 1 || decidedA[0].step != sa.TierKeptSteps || sa.TierKeptSteps == 0 || sa.TierDroppedSteps == 0 {
		t.Fatalf("decisions %v for %+v, want one, at the first dropped step", decidedA, sa)
	}
	if !slices.Contains(decidedA[0].attrs, span.Attr{Key: "reserve_bytes", Val: BudgetReserve(ds.Ckt)}) {
		t.Fatalf("decision %v; BudgetReserve is %d B", decidedA[0].attrs, BudgetReserve(ds.Ckt))
	}
	if len(decidedB) != 1 || decidedB[0].step != decidedA[0].step || !slices.Equal(decidedA[0].attrs, decidedB[0].attrs) {
		t.Fatalf("decisions %v, then %v", decidedA, decidedB)
	}
	t.Logf("kept %d, dropped %d steps; stored %d B, peak %d B, %d recomputes; decision %v",
		sa.TierKeptSteps, sa.TierDroppedSteps, sa.StoredBytes, sa.PeakResident, sa.TierRecomputes, decidedA[0].attrs)
	if sa.StoredBytes != sb.StoredBytes || sa.PeakResident != sb.PeakResident || sa.TierKeptSteps != sb.TierKeptSteps || sa.TierRecomputes != sb.TierRecomputes {
		t.Fatalf("stored %d then %d B, peak %d then %d B, kept %d then %d, %d then %d recomputes",
			sa.StoredBytes, sb.StoredBytes, sa.PeakResident, sb.PeakResident, sa.TierKeptSteps, sb.TierKeptSteps, sa.TierRecomputes, sb.TierRecomputes)
	}
}

// TestParseByteSize pins the -mem-budget spelling contract.
func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"-0", 0},
		{"1", 1},
		{"4096", 4096},
		{"64k", 64 << 10},
		{"64K", 64 << 10},
		{"64KB", 64 << 10},
		{"64KiB", 64 << 10},
		{"256M", 256 << 20},
		{"256MiB", 256 << 20},
		{"2g", 2 << 30},
		{"1T", 1 << 40},
		{"1.5M", 3 << 19},
		{" 8M ", 8 << 20},
		{"268435456", 256 << 20},
		{"8388607T", 8388607 << 40},
	} {
		got, err := ParseByteSize(tc.in)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "12Q", "MB",
		"NaN", "Inf", "-Inf", "1e30", "9223372036854775807", "8E", "8388608T",
		"0.5", "0.9", "0.0001K"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Fatalf("ParseByteSize(%q) accepted", bad)
		}
	}
}
