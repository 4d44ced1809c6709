package adjoint

import (
	"context"
	"strings"
	"testing"

	"masc/internal/lu"
	"masc/internal/sparse"
)

// TestForeignPatternFactorsFailLoudly: factors recorded on another Pattern
// object — here a second build of the same netlist, so every index agrees —
// are a wiring bug. Both engines used to swallow Refactor's complaint and
// quietly re-pivot; only ErrPivotDegraded may do that.
func TestForeignPatternFactorsFailLoudly(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	other, _ := cases()[0].build(t)
	jv, _, err := src.Fetch(res.Steps())
	if err != nil {
		t.Fatal(err)
	}
	// Each use gets its own factors: a refactor attempt may touch them.
	foreign := func() *lu.LU {
		f, err := lu.Factor(&sparse.Matrix{P: other.JPat, Val: append([]float64(nil), jv...)},
			lu.Options{ColPerm: other.JPerm()})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	params := make([]int, len(ckt.Params()))
	for i := range params {
		params[i] = i
	}
	check := func(label string, r *Result, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "pattern") {
			t.Fatalf("%s: err = %v, want the pattern mismatch", label, err)
		}
		if r != nil {
			t.Fatalf("%s: returned a result alongside the error", label)
		}
	}
	for _, workers := range []int{1, 2} {
		s := newSweep(ckt, res, src, objs, params, false, Options{Workers: workers, Ctx: context.Background()})
		s.fact = foreign()
		err := s.run()
		check("sweep", nil, err)
		if s.res.Factorizations != 0 {
			t.Fatalf("sweep re-pivoted %d times on a pattern mismatch", s.res.Factorizations)
		}
	}
	r, err := directSensitivities(ckt, res, objs, Options{}, foreign())
	check("direct", r, err)
}
