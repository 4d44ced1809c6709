package masc

import (
	"fmt"
	"math"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
	"masc/internal/workload"
)

// TestNonDefaultGminDegradedBitIdentical: with a non-default gmin and every
// stored blob rotted, every step — the DC step included — comes back through
// the recompute ladder, and the run must still return the fault-free bits on
// every engine. The gmin that J_0 carries is recorded with the trajectory
// (TransientResult.Gmin) and read by the one J assembly; a ladder or direct
// method that assumed the default returned sensitivities off by up to 300×
// here without an error.
func TestNonDefaultGminDegradedBitIdentical(t *testing.T) {
	ds, err := workload.Build("MOS_T7", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	base := SimOptions{Transient: ds.Tran, Storage: StorageMASC}
	base.Transient.Gmin = 1e-6
	// Objectives that weigh the DC step as well as the final state.
	objs := append([]Objective(nil), ds.Objectives...)
	objs = append(objs, Objective{Name: "integral", Node: objs[0].Node, Weight: 1, Integral: true})

	ref, err := Simulate(ds.Ckt, base, objs, ds.Params)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Tran.Gmin != 1e-6 {
		t.Fatalf("trajectory records gmin %g, the run used 1e-6", ref.Tran.Gmin)
	}
	for _, c := range []struct {
		name string
		tune func(*SimOptions)
	}{
		{"masc", func(*SimOptions) {}},
		{"budget-1MiB", func(o *SimOptions) { o.MemBudgetBytes = 1 << 20 }},
		{"workers-2", func(o *SimOptions) { o.AdjointWorkers = 2 }},
	} {
		opt := base
		c.tune(&opt)
		clean, err := Simulate(ds.Ckt, opt, objs, ds.Params)
		if err != nil {
			t.Fatalf("%s fault-free: %v", c.name, err)
		}
		sameBits(t, c.name+" fault-free vs serial masc", clean.Sens.DOdp, ref.Sens.DOdp)
		opt.Fault = NewFaultInjector(FaultProfile{Seed: 1, BitFlipOneIn: 1})
		rotted, err := Simulate(ds.Ckt, opt, objs, ds.Params)
		if err != nil {
			t.Fatalf("%s with every blob rotted: %v", c.name, err)
		}
		if len(rotted.Sens.DegradedSteps) == 0 {
			t.Fatalf("%s: faults were injected but no step degraded", c.name)
		}
		sameBits(t, c.name+" with every blob rotted", rotted.Sens.DOdp, ref.Sens.DOdp)
	}

	sub := ds.Params[:4]
	dir, err := DirectSensitivities(ds.Ckt, ref.Tran, objs, sub)
	if err != nil {
		t.Fatal(err)
	}
	for o := range objs {
		for k := range sub {
			a, d := ref.Sens.DOdp[o][k], dir.DOdp[o][k]
			if math.Abs(a-d) > 1e-6*math.Max(math.Abs(d), 1e-12) {
				t.Fatalf("obj %d param %d: adjoint %g, direct %g", o, k, a, d)
			}
		}
	}
}

// TestTensorStatsCountTheStoredPair: whatever the strategy, the raw payload
// is the (G, C) pair of every step, and on the benchmark's three circuits the
// chained MASC store holds no more bytes for it than it held for (J, C) —
// J = G + C/h repeats C's entropy, G does not.
func TestTensorStatsCountTheStoredPair(t *testing.T) {
	for _, fx := range []struct {
		name  string
		scale float64
	}{{"smult20", 0.25}, {"MOS_T7", 0.3}, {"RC_01", 0.3}} {
		ds, err := workload.Build(fx.name, fx.scale)
		if err != nil {
			t.Fatal(err)
		}
		ckt := ds.Ckt
		var stored int64
		for _, tc := range []struct {
			storage Storage
			budget  int64
		}{
			{StorageMemory, 0}, {StorageDisk, 0}, {StorageMASC, 0},
			{StorageMASC, 256 << 10},
		} {
			label := fmt.Sprintf("%s/%s/budget=%d", fx.name, tc.storage, tc.budget)
			run, err := Simulate(ckt, SimOptions{Transient: ds.Tran, Storage: tc.storage,
				MemBudgetBytes: tc.budget, DiskDir: t.TempDir()}, ds.Objectives, ds.Params)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := int64(8 * (run.Tran.Steps() + 1) * (ckt.GPat.NNZ() + ckt.CPat.NNZ()))
			if got := run.TensorStats.RawBytes; got != want {
				t.Fatalf("%s: RawBytes = %d, want 8·(steps+1)·(nnz(G)+nnz(C)) = %d", label, got, want)
			}
			if tc.storage == StorageMASC && tc.budget == 0 {
				stored = run.TensorStats.StoredBytes
			}
		}

		// The same forward pass into a (J, C) store, through the Capture adapter.
		jc := jactensor.NewCompressedStore(
			masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
			ckt.JPat, ckt.CPat)
		topt := ds.Tran
		topt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
			return jc.Put(step, J.Val, C.Val)
		}
		if _, err := transient.Run(ckt, topt); err != nil {
			t.Fatal(err)
		}
		if err := jc.EndForward(); err != nil {
			t.Fatal(err)
		}
		old := jc.Stats().StoredBytes
		jc.Close()
		t.Logf("%s: stored %d B as (G, C), %d B as (J, C)", fx.name, stored, old)
		if stored > old {
			t.Fatalf("%s: the (G, C) store holds %d B, the (J, C) store held %d B", fx.name, stored, old)
		}
	}
}
