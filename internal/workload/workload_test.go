package workload

import (
	"math"
	"testing"

	"masc/internal/adjoint"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// simulate runs the dataset's transient analysis and counts the (G, C) pairs
// its capture hook hands out, putting each into store if non-nil and ending
// the store's forward phase.
func simulate(t *testing.T, ds *Dataset, store jactensor.Store) (*transient.Result, int) {
	t.Helper()
	captured := 0
	opt := ds.Tran
	opt.CaptureGC = func(step int, _ float64, _ []float64, G, C *sparse.Matrix) error {
		captured++
		if store == nil {
			return nil
		}
		return store.Put(step, G.Val, C.Val)
	}
	res, err := transient.Run(ds.Ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		if err := store.EndForward(); err != nil {
			t.Fatal(err)
		}
	}
	return res, captured
}

func TestAllDatasetsBuildAndSimulate(t *testing.T) {
	names := append(Table2Names(), Table1Names()...)
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := Build(name, 0.04)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Elems == 0 || len(ds.Objectives) == 0 || len(ds.Params) == 0 {
				t.Fatalf("degenerate dataset: %+v", ds)
			}
			res, captured := simulate(t, ds, nil)
			if res.Steps() < 5 {
				t.Fatalf("only %d steps simulated", res.Steps())
			}
			for _, x := range res.States[len(res.States)-1] {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatal("non-finite final state")
				}
			}
			if captured != res.Steps()+1 {
				t.Fatalf("captured %d tensor steps for %d transient steps",
					captured, res.Steps())
			}
			if ds.CSRBytes(res.Steps()) <= ds.NZBytes(res.Steps()) {
				t.Fatal("S_CSR must exceed S_NZ")
			}
		})
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	if _, err := Build("nope", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestScaleChangesSize(t *testing.T) {
	small, err := Build("add20", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build("add20", 0.12)
	if err != nil {
		t.Fatal(err)
	}
	if big.Elems <= small.Elems {
		t.Fatalf("scaling up did not grow the circuit: %d vs %d", big.Elems, small.Elems)
	}
}

// TestDatasetSensitivityPipeline smoke-tests the full pipeline on one
// dataset: simulate, capture, adjoint over the captured tensor, and check
// against the recompute source.
func TestDatasetSensitivityPipeline(t *testing.T) {
	ds, err := Build("CHIP_01", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	store := jactensor.NewMemStore()
	res, _ := simulate(t, ds, store)
	objs := ds.Objectives[:2]
	opt := adjoint.Options{Params: ds.Params[:5], StoredGC: true}
	a1, err := adjoint.Sensitivities(ds.Ckt, res, store, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := adjoint.Sensitivities(ds.Ckt, res, adjoint.NewRecomputeSource(ds.Ckt, res).Pairs(), objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for o := range a1.DOdp {
		for k := range a1.DOdp[o] {
			d := math.Abs(a1.DOdp[o][k] - a2.DOdp[o][k])
			if d > 1e-9*math.Max(1, math.Abs(a2.DOdp[o][k])) {
				t.Fatalf("stored vs recompute mismatch at obj %d param %d", o, k)
			}
		}
	}
}

func TestExtraWorkloads(t *testing.T) {
	for _, name := range ExtraNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := Build(name, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := simulate(t, ds, nil)
			if res.Steps() < 10 {
				t.Fatalf("only %d steps", res.Steps())
			}
			for _, x := range res.States[len(res.States)-1] {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatal("non-finite state")
				}
			}
		})
	}
}

func TestRingOscillatorActuallyOscillates(t *testing.T) {
	ds, err := Build("ringosc", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := simulate(t, ds, nil)
	// Count rail-to-rail transitions of one inverter output in the second
	// half of the run.
	node, err2 := ds.Bld.NodeIndex("n_g_1")
	if err2 != nil {
		t.Fatal(err2)
	}
	crossings := 0
	mid := 1.5
	for i := len(res.States)/2 + 1; i < len(res.States); i++ {
		a := res.States[i-1][node] - mid
		b := res.States[i][node] - mid
		if a*b < 0 {
			crossings++
		}
	}
	if crossings < 4 {
		t.Fatalf("ring oscillator has %d mid-rail crossings, want ≥4", crossings)
	}
}
