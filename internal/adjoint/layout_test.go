package adjoint

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// TestStoredGCSweepsBitIdentical is the layout's contract: one forward pass
// captures the assembled (J, C) and the device pair (G, C) side by side, and
// every engine that sweeps the (G, C) stores — one and two workers, over
// memory and compressed stores, recomputation, and the degradation
// ladder repairing rotted pairs —
// returns the dO/dp bits of the one-worker sweep over the stored J. Fixtures
// cover both integrators and a non-default gmin (the DC step is the one
// whose J is more than a weighted sum of the pair).
func TestStoredGCSweepsBitIdentical(t *testing.T) {
	type fixture struct {
		tc   testCase
		trap bool
		gmin float64
	}
	for _, fx := range []fixture{
		{cases()[0], false, 0},
		{cases()[2], true, 0},
		{cases()[3], false, 1e-6},
		{cases()[1], true, 1e-7},
	} {
		fx := fx
		name := fx.tc.name
		if fx.trap {
			name += "_trap"
		}
		t.Run(name, func(t *testing.T) {
			ckt, b := fx.tc.build(t)
			opt := fx.tc.opt
			opt.Gmin = fx.gmin
			if fx.trap {
				opt.Method = transient.MethodTrap
			}
			newComp := func() *jactensor.CompressedStore {
				return jactensor.NewCompressedStore(
					masczip.New(ckt.GPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
					ckt.GPat, ckt.CPat)
			}
			jc, gc := jactensor.NewMemStore(), jactensor.NewMemStore()
			rotMem := jactensor.NewMemStore()
			rotMem.Attach(jactensor.Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 5, BitFlipOneIn: 3})})
			rotComp := newComp()
			rotComp.Attach(jactensor.Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 9, BitFlipOneIn: 1})})
			comps := []*jactensor.CompressedStore{newComp(), newComp()}
			pairStores := []jactensor.Store{gc, rotMem, rotComp, comps[0], comps[1]}

			opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
				return jc.Put(step, J.Val, C.Val)
			}
			opt.CaptureGC = func(step int, _ float64, _ []float64, G, C *sparse.Matrix) error {
				for _, st := range pairStores {
					if err := st.Put(step, G.Val, C.Val); err != nil {
						return err
					}
				}
				return nil
			}
			res, err := transient.Run(ckt, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range append([]jactensor.Store{jc}, pairStores...) {
				if err := st.EndForward(); err != nil {
					t.Fatal(err)
				}
				defer st.Close()
			}
			node, err := b.NodeIndex(fx.tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			objs := []Objective{
				{Name: "final", Node: node, Weight: 1},
				{Name: "mid", Node: node, Weight: 0.5, Step: res.Steps() / 2},
				{Name: "integral", Node: node, Weight: 2, Integral: true},
			}
			want, err := Sensitivities(ckt, res, keepAll{jc}, objs, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sweep := func(label string, src JacobianSource, o Options) *Result {
				t.Helper()
				o.StoredGC = true
				got, err := Sensitivities(ckt, res, src, objs, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireBitIdentical(t, label, want, got)
				return got
			}
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("workers=%d", workers)
				o := Options{Workers: workers}
				sweep(label+",mem", keepAll{gc}, o)
				sweep(label+",recompute", NewRecomputeSource(ckt, res).Pairs(), o)
			}
			// A compressed store is consumed by its sweep: one per engine.
			sweep("compressed,workers=1", comps[0], Options{})
			sweep("compressed,workers=2", comps[1], Options{Workers: 2})

			// The ladder recomputes the pair, not J, and repairs the store
			// with it: a healed step must refetch as (G, C).
			got := sweep("rotted mem,workers=2", rotMem, Options{Workers: 2})
			if len(got.DegradedSteps) == 0 {
				t.Fatal("rotted mem store degraded no step; the ladder was not exercised")
			}
			// Every blob is rotted, so every step below the head degrades but
			// one whose every tensor repeats the step above, which has no
			// blob: a linear circuit's chain is all repeats and degrades
			// nothing.
			got = sweep("every blob rotted", rotComp, Options{})
			st := rotComp.Stats()
			if blobs := st.StoredBytes - st.IndexBytes; blobs == 0 {
				if st.RepeatSteps != [2]int{res.Steps(), res.Steps()} || len(got.DegradedSteps) != 0 {
					t.Fatalf("a chain with no blob: RepeatSteps %v of %d steps, %d degraded", st.RepeatSteps, res.Steps(), len(got.DegradedSteps))
				}
			} else {
				if least := res.Steps() - min(st.RepeatSteps[0], st.RepeatSteps[1]); len(got.DegradedSteps) < least {
					t.Fatalf("every blob was rotted but only %d of %d steps degraded, want at least %d", len(got.DegradedSteps), res.Steps()+1, least)
				}
				if st.Repairs == 0 {
					t.Fatal("no repair reached the compressed store")
				}
			}

			// The (J, C) adapters agree with each other too: recomputation
			// and the ladder over a rotted (J, C) store.
			legacy, err := Sensitivities(ckt, res, NewRecomputeSource(ckt, res), objs, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, "(J, C) recompute", want, legacy)

			// The direct method reads the recorded gmin as well.
			dir, err := DirectSensitivities(ckt, res, objs[:1], Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k, w := range want.DOdp[0] {
				if d := math.Abs(dir.DOdp[0][k] - w); d > fx.tc.fdRelTol*math.Max(math.Abs(w), 1e-12) {
					t.Fatalf("direct vs adjoint param %d: %g vs %g", k, dir.DOdp[0][k], w)
				}
			}
		})
	}
}

// TestLegacyLadderUsesRecordedGmin is the silent-corruption bug in its
// smallest form: a (J, C) store loses its DC step under a non-default gmin,
// and the ladder's recomputed J_0 must carry the run's gmin, not the default.
func TestLegacyLadderUsesRecordedGmin(t *testing.T) {
	ckt, b := mosInverter(t)
	node, err := b.NodeIndex("out")
	if err != nil {
		t.Fatal(err)
	}
	clean, rotted := jactensor.NewMemStore(), jactensor.NewMemStore()
	rotted.Attach(jactensor.Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 1, BitFlipOneIn: 1})})
	opt := transient.Options{TStop: 2e-5, TStep: 2e-7, Gmin: 1e-5}
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		if err := clean.Put(step, J.Val, C.Val); err != nil {
			return err
		}
		return rotted.Put(step, J.Val, C.Val)
	}
	res, err := transient.Run(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Objectives that weigh the DC step: λ of a final-state objective has
	// decayed to nothing by step 0 on this fixture.
	objs := []Objective{{Node: node, Weight: 1, Step: 1}, {Node: node, Weight: 1, Integral: true}}
	var runs [2]*Result
	for i, st := range []*jactensor.MemStore{clean, rotted} {
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
		if runs[i], err = Sensitivities(ckt, res, st, objs, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(runs[1].DegradedSteps); n != res.Steps()+1 {
		t.Fatalf("%d steps degraded, want all %d", n, res.Steps()+1)
	}
	requireBitIdentical(t, "degraded (J, C) run under gmin 1e-5", runs[0], runs[1])
}

// TestLayoutMismatchIsAnError: a (G, C) store swept as (J, C) — or the
// reverse — is refused by its value counts instead of indexing past a
// pattern deep inside the factorization. (Where G's pattern already covers
// C's the counts are equal and nothing can tell; Options.StoredGC is a
// contract, and this is the check that is free.)
func TestLayoutMismatchIsAnError(t *testing.T) {
	ckt, b := mosInverter(t) // its gate capacitances put C entries outside G's pattern
	if ckt.GPat.NNZ() == ckt.JPat.NNZ() {
		t.Fatal("fixture's G covers the union pattern; the two layouts have equal counts")
	}
	node, _ := b.NodeIndex("out")
	gc, jc := jactensor.NewMemStore(), jactensor.NewMemStore()
	opt := transient.Options{TStop: 2e-6, TStep: 2e-7}
	opt.CaptureGC = func(step int, _ float64, _ []float64, G, C *sparse.Matrix) error {
		return gc.Put(step, G.Val, C.Val)
	}
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		return jc.Put(step, J.Val, C.Val)
	}
	res, err := transient.Run(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	objs := []Objective{{Node: node, Weight: 1}}
	for _, c := range []struct {
		st       *jactensor.MemStore
		storedGC bool
	}{{gc, false}, {jc, true}} {
		if err := c.st.EndForward(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			_, err := Sensitivities(ckt, res, keepAll{c.st}, objs, Options{StoredGC: c.storedGC, Workers: workers})
			if err == nil || !strings.Contains(err.Error(), "layout") {
				t.Fatalf("StoredGC=%v workers=%d over the other layout: err = %v", c.storedGC, workers, err)
			}
		}
	}
}
