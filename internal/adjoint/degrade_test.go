package adjoint

import (
	"math"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// degradeFixture runs one forward transient of tc, capturing into both a
// clean MemStore (the reference) and the store under test.
func degradeFixture(t *testing.T, tc testCase, faulty jactensor.Store) (*Result, *Result, *transient.Result) {
	t.Helper()
	ckt, b := tc.build(t)
	node, err := b.NodeIndex(tc.obj)
	if err != nil {
		t.Fatal(err)
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
	objs := []Objective{{Node: node, Weight: 1}}
	want, err := Sensitivities(ckt, res, clean, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sensitivities(ckt, res, faulty, objs, Options{})
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	return want, got, res
}

// TestDegradedSweepBitIdentical corrupts stored blobs with the fault
// injector and asserts the tentpole guarantee: the reverse sweep degrades
// to per-step recomputation for the damaged steps and finishes with
// sensitivities BIT-IDENTICAL to the fault-free run. The memory store rots
// the RC ladder's raw frames; the compressed store runs the diode rectifier,
// whose tensors move, since a linear circuit's chain is all repeats and holds
// no blob to rot.
func TestDegradedSweepBitIdentical(t *testing.T) {
	mk := map[string]func() (testCase, jactensor.Store, *faultinject.Injector){
		"mem": func() (testCase, jactensor.Store, *faultinject.Injector) {
			in := faultinject.New(faultinject.Profile{Seed: 11, BitFlipOneIn: 10})
			st := jactensor.NewMemStore()
			st.Attach(jactensor.Attachment{Fault: in})
			return cases()[0], st, in
		},
		"compressed-sync": func() (testCase, jactensor.Store, *faultinject.Injector) {
			in := faultinject.New(faultinject.Profile{Seed: 12, BitFlipOneIn: 10})
			tc := cases()[1]
			ckt, _ := tc.build(t)
			st := jactensor.NewCompressedStore(
				masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
				ckt.JPat, ckt.CPat)
			st.Attach(jactensor.Attachment{Fault: in})
			return tc, st, in
		},
	}
	for name, build := range mk {
		t.Run(name, func(t *testing.T) {
			tc, st, in := build()
			want, got, _ := degradeFixture(t, tc, st)
			if !in.Stats().Any() {
				t.Fatal("injector delivered no faults; test proves nothing")
			}
			if len(got.DegradedSteps) == 0 {
				t.Fatal("faults were injected but no step degraded")
			}
			for k := range want.DOdp[0] {
				if math.Float64bits(want.DOdp[0][k]) != math.Float64bits(got.DOdp[0][k]) {
					t.Fatalf("param %d: degraded %g != clean %g (not bit-identical)",
						k, got.DOdp[0][k], want.DOdp[0][k])
				}
			}
			if st.Stats().Repairs != len(got.DegradedSteps) {
				t.Fatalf("repairs %d != degraded steps %d", st.Stats().Repairs, len(got.DegradedSteps))
			}
		})
	}
}
