package transient_test

import (
	"math"
	"testing"

	"masc/internal/transient"
	"masc/internal/workload"
)

// TestDCLadderFallbackBitIdentical: with a Newton cap under which plain
// Newton from the zero state fails but every gmin rung converges (smult20
// needs 14 iterations direct, at most 8 on a rung), the DC point falls back to
// the ladder and returns exactly the ladder's bits — the failed attempt
// leaves nothing behind, not even its factors: the ladder's first rung
// searches afresh, as the ladder alone does.
func TestDCLadderFallbackBitIdentical(t *testing.T) {
	ds, err := workload.Build("smult20", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opt := ds.Tran
	opt.MaxNewton = 10
	x, ladder, err := transient.DCPath(ds.Ckt, opt.TStart, opt)
	if err != nil || !ladder {
		t.Fatalf("ladder = %v, err = %v; want a converged fallback to the ladder", ladder, err)
	}
	want, ladderSt, err := transient.LadderDC(ds.Ckt, opt.TStart, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := transient.DCOperatingPoint(ds.Ckt, opt.TStart, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The failed attempt: MaxNewton iterations, one of them a search.
	if st.NewtonIters != opt.MaxNewton+ladderSt.NewtonIters || st.Factorizations != 1+ladderSt.Factorizations {
		t.Fatalf("fallback: %d iterations and %d factorizations; the ladder alone takes %d and %d, the failed attempt %d and 1",
			st.NewtonIters, st.Factorizations, ladderSt.NewtonIters, ladderSt.Factorizations, opt.MaxNewton)
	}
	for i := range want {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %x after the fallback, the ladder alone gives %x", i, math.Float64bits(x[i]), math.Float64bits(want[i]))
		}
	}
}

// TestDirectDCAgreesWithLadder: on every workload dataset plain Newton
// converges, to the ladder's operating point within the Newton tolerance.
func TestDirectDCAgreesWithLadder(t *testing.T) {
	names := append(append(workload.Table1Names(), workload.Table2Names()...), workload.ExtraNames()...)
	for _, name := range names {
		ds, err := workload.Build(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		opt := ds.Tran
		x, ladder, err := transient.DCPath(ds.Ckt, opt.TStart, opt)
		if err != nil || ladder {
			t.Fatalf("%s: ladder = %v, err = %v; want plain Newton to converge", name, ladder, err)
		}
		want, _, err := transient.LadderDC(ds.Ckt, opt.TStart, opt)
		if err != nil {
			t.Fatal(err)
		}
		tol := transient.WithDefaults(opt)
		for i := range want {
			if d := math.Abs(x[i] - want[i]); !(d <= tol.AbsTol+tol.RelTol*math.Abs(want[i])) {
				t.Errorf("%s: x[%d] = %g direct, %g by the ladder", name, i, x[i], want[i])
			}
		}
	}
}
