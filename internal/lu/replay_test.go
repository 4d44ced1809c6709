package lu

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"masc/internal/sparse"
)

// sameLU fails unless g is f bit for bit: the same recorded structure and the
// same numeric factors.
func sameLU(t *testing.T, label string, f, g *LU) {
	t.Helper()
	for _, p := range []struct {
		name string
		a, b []int32
	}{
		{"q", f.q, g.q}, {"pinv", f.pinv, g.pinv}, {"prow", f.prow, g.prow},
		{"lp", f.lp, g.lp}, {"lrow", f.lrow, g.lrow}, {"up", f.up, g.up}, {"uk", f.uk, g.uk},
		{"ppos", f.ppos, g.ppos},
	} {
		if !slices.Equal(p.a, p.b) {
			t.Fatalf("%s: %s differs from Factor's", label, p.name)
		}
	}
	sameFactorBits(t, label, g, f)
	if !sameBits(f.memo, g.memo) || f.memoOK != g.memoOK || f.pivoted != g.pivoted {
		t.Fatalf("%s: value memo differs from Factor's", label)
	}
}

// replayFixture returns a random matrix needing pivoting (indefinite) or
// not, and a column order for it (natural or minimum degree).
func replayFixture(rng *rand.Rand, iter int) (*sparse.Matrix, []int32) {
	n := 5 + rng.Intn(50)
	var m *sparse.Matrix
	if iter%2 == 0 {
		m = randomIndefinite(rng, n)
	} else {
		m = randomSPDish(rng, n, 4*n)
	}
	if iter%3 == 0 {
		return m, nil
	}
	return m, MinDegree(m.P)
}

// TestReplayMatchesFactor is the replay's contract: Factor handed a hint
// returns what Factor without one returns, bit for bit, whether it followed
// the hint to the last column or left it at a column whose pivot the search
// would choose differently. Values far from the hint's make both happen.
func TestReplayMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	replays, searches := 0, 0
	for iter := 0; iter < 60; iter++ {
		m, perm := replayFixture(rng, iter)
		h, err := Factor(m, Options{ColPerm: perm})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		before := &LU{lx: slices.Clone(h.lx), ux: slices.Clone(h.ux), ud: slices.Clone(h.ud)}
		for k := 0; k < 4; k++ {
			a := perturbed(m, rng, float64(k*k*k)) // k = 0: the hint's own values
			want, werr := Factor(a, Options{ColPerm: perm})
			got, replayed, gerr := factor(a, Options{ColPerm: perm, Hint: h})
			label := fmt.Sprintf("iter %d perturbation %d", iter, k)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%s: error %v, Factor's %v", label, gerr, werr)
			}
			if werr != nil {
				continue
			}
			// The replay runs to the end exactly when the search picks the
			// hint's pivots.
			if replayed != slices.Equal(want.prow, h.prow) {
				t.Fatalf("%s: replayed = %v with the search's pivots %s the hint's", label, replayed,
					map[bool]string{true: "equal to", false: "unlike"}[slices.Equal(want.prow, h.prow)])
			}
			if replayed {
				replays++
			} else {
				searches++
			}
			sameLU(t, label, want, got)
			// The replayed factors solve like Factor's.
			b1 := make([]float64, m.P.N)
			for i := range b1 {
				b1[i] = rng.NormFloat64()
			}
			b2 := slices.Clone(b1)
			want.SolveT(b1)
			got.SolveT(b2)
			if !sameBits(b1, b2) {
				t.Fatalf("%s: SolveT differs from Factor's", label)
			}
		}
		sameFactorBits(t, "hint after its replays", before, h)
	}
	if replays == 0 || searches == 0 {
		t.Fatalf("%d replays and %d fallbacks to the search: the fixture must exercise both", replays, searches)
	}
}

// TestReplayOfARefactoredHint: a hint whose factors came from a Refactor
// holds pivots the search might not choose for its values, so even a
// bit-identical matrix replays the numeric pass rather than copy them.
func TestReplayOfARefactoredHint(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cases := 0
	for iter := 0; iter < 20; iter++ {
		m, perm := replayFixture(rng, iter)
		h, err := Factor(m, Options{ColPerm: perm})
		if err != nil {
			t.Fatal(err)
		}
		a := perturbed(m, rng, 8)
		if h.Refactor(a) != nil {
			continue // the recorded pivots do not survive these values
		}
		cases++
		if h.pivoted {
			t.Fatal("a refactorization of new values kept the factors marked as Factor's")
		}
		want, werr := Factor(a, Options{ColPerm: perm})
		got, _, gerr := factor(a, Options{ColPerm: perm, Hint: h})
		if werr != nil || gerr != nil {
			t.Fatalf("iter %d: %v / %v", iter, werr, gerr)
		}
		sameLU(t, "refactored hint", want, got)
	}
	if cases < 10 {
		t.Fatalf("only %d of 20 hints refactored", cases)
	}
}

// TestReplayNeedsTheHintsPatternAndOrder: a hint on another pattern, or with
// another column order, is not replayed; Factor searches as without it.
func TestReplayNeedsTheHintsPatternAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := randomSPDish(rng, 30, 120)
	perm := MinDegree(m.P)
	other := randomSPDish(rng, 30, 120)
	foreign, err := Factor(other, Options{ColPerm: MinDegree(other.P)})
	if err != nil {
		t.Fatal(err)
	}
	natural, err := Factor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		hint *LU
		perm []int32
	}{
		{"foreign pattern", foreign, perm},
		{"natural-order hint, permuted request", natural, perm},
	} {
		want, err := Factor(m, Options{ColPerm: c.perm})
		if err != nil {
			t.Fatal(err)
		}
		got, replayed, err := factor(m, Options{ColPerm: c.perm, Hint: c.hint})
		if err != nil || replayed {
			t.Fatalf("%s: replayed = %v, err = %v", c.name, replayed, err)
		}
		sameLU(t, c.name, want, got)
	}
	// The natural order, asked for with nil, is the natural-order hint's.
	if _, replayed, err := factor(m, Options{Hint: natural}); err != nil || !replayed {
		t.Fatalf("natural order: replayed = %v, err = %v", replayed, err)
	}
}

// TestReplayFallsBackAtAPivotMismatch zeroes the diagonal of a column the
// hint pivoted on its diagonal and that no earlier column updates, so the
// search must pick one of its other rows: the replay leaves the hint at that
// column and the result is Factor's.
func TestReplayFallsBackAtAPivotMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cases := 0
	for iter := 0; iter < 10; iter++ {
		m := randomSPDish(rng, 20+rng.Intn(30), 120)
		perm := MinDegree(m.P)
		h, err := Factor(m, Options{ColPerm: perm})
		if err != nil {
			t.Fatal(err)
		}
		// The latest such column, so the replay has work behind it when it
		// stops.
		j := -1
		for jj := len(perm) - 1; jj >= 0 && j < 0; jj-- {
			if h.prow[jj] == perm[jj] && h.lp[jj+1] > h.lp[jj] && h.up[jj+1] == h.up[jj] {
				j = jj
			}
		}
		if j < 0 {
			continue
		}
		cases++
		a := m.Clone()
		a.Val[a.P.DiagSlots()[perm[j]]] = 0
		want, werr := Factor(a, Options{ColPerm: perm})
		got, replayed, gerr := factor(a, Options{ColPerm: perm, Hint: h})
		if replayed {
			t.Fatalf("iter %d: replayed through column %d, whose diagonal is zero", iter, j)
		}
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("iter %d: error %v, Factor's %v", iter, gerr, werr)
		}
		if werr == nil {
			sameLU(t, "mismatch", want, got)
		}
	}
	if cases < 5 {
		t.Fatalf("only %d of 10 fixtures have a column to break", cases)
	}
}

// TestReplayOfASingularMatrix: a column with no nonzero left has no pivot
// for the search either; Factor with the hint returns the search's error.
func TestReplayOfASingularMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := randomSPDish(rng, 25, 100)
	perm := MinDegree(m.P)
	h, err := Factor(m, Options{ColPerm: perm})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Clone()
	c := perm[len(perm)/2]
	csc := a.P.CSC()
	for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
		a.Val[csc.Slot[p]] = 0
	}
	_, werr := Factor(a, Options{ColPerm: perm})
	_, what, gerr := Factorize(nil, a, Options{ColPerm: perm, Hint: h})
	if !errors.Is(werr, ErrSingular) || gerr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("singular matrix: error %v (outcome %d), Factor's %v", gerr, what, werr)
	}
}

// TestFactorizeReportsReplay: Factorize says Replayed for a hint it followed
// and counts it as a factorization.
func TestFactorizeReportsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := randomSPDish(rng, 20, 80)
	h, err := Factor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, what, err := Factorize(nil, perturbed(m, rng, 1), Options{Hint: h})
	if err != nil || what != Replayed || f == h {
		t.Fatalf("outcome %d, err %v, same LU %v; want a replay into new factors", what, err, f == h)
	}
	var factored, refactored, reused int
	what.Count(&factored, &refactored, &reused)
	if factored != 1 || refactored != 0 || reused != 0 {
		t.Fatalf("a replay counted as %d/%d/%d", factored, refactored, reused)
	}
}

// TestReplayAllocations pins the replay's allocation shape beside
// TestRefactorAndFactorAllocations: the LU, its memo, its workspace and its
// three numeric arrays, whether it runs the numeric pass or copies the
// hint's factors; the symbolic arrays are the hint's.
func TestReplayAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 60
	m1 := randomSPDish(rng, n, 5*n)
	m2 := perturbed(m1, rng, 1)
	perm := MinDegree(m1.P)
	h, err := Factor(m1, Options{ColPerm: perm})
	if err != nil {
		t.Fatal(err)
	}
	const want = 6
	for name, a := range map[string]*sparse.Matrix{"numeric pass": m2, "copy": m1} {
		got := testing.AllocsPerRun(50, func() {
			if _, replayed, err := factor(a, Options{ColPerm: perm, Hint: h}); err != nil || !replayed {
				t.Fatalf("%s: replayed = %v, err = %v", name, replayed, err)
			}
		})
		if got != want {
			t.Errorf("%s: replay allocated %v times, want %d", name, got, want)
		}
	}
	g, _, err := factor(m2, Options{ColPerm: perm, Hint: h})
	if err != nil {
		t.Fatal(err)
	}
	if &g.lrow[0] != &h.lrow[0] || &g.ppos[0] != &h.ppos[0] || &g.lx[0] == &h.lx[0] {
		t.Fatal("a replay must share the hint's symbolic arrays and own its numeric ones")
	}
}
