package lu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"masc/internal/lu"
	"masc/internal/sparse"
)

// rescaled returns m's pattern with every value scaled by 1 + rel·N(0, 1):
// a matrix a Newton iteration could hand the solver next, without the
// additive noise of lu.Perturbed, which swamps a circuit's small entries.
func rescaled(m *sparse.Matrix, rng *rand.Rand, rel float64) *sparse.Matrix {
	out := m.Clone()
	for k := range out.Val {
		out.Val[k] *= 1 + rel*rng.NormFloat64()
	}
	return out
}

// TestRefactorIsTheSearchsArithmetic holds Refactor's numeric pass to the
// pivot search's own arithmetic. Factor J_a; wherever the search factoring
// J_b keeps J_a's pivots (Factor(J_b) with J_a's factors as its hint replays
// to the end), Refactor(J_b) on J_a's factors must give lx, ux and ud bit
// for bit equal to Factor(J_b)'s. The pass walks the factors' column lists,
// so a U update applied out of the search's order fails here.
func TestRefactorIsTheSearchsArithmetic(t *testing.T) {
	check := func(t *testing.T, label string, ja, jb *sparse.Matrix, perm []int32) bool {
		t.Helper()
		f, err := lu.Factor(ja, lu.Options{ColPerm: perm})
		if err != nil {
			t.Fatalf("%s: Factor(J_a): %v", label, err)
		}
		want, err := lu.Factor(jb, lu.Options{ColPerm: perm})
		if err != nil {
			t.Fatalf("%s: Factor(J_b): %v", label, err)
		}
		if _, how, err := lu.Factorize(nil, jb, lu.Options{ColPerm: perm, Hint: f}); err != nil || how != lu.Replayed {
			return false // the search leaves J_a's pivots somewhere
		}
		if err := f.Refactor(jb); err != nil {
			t.Fatalf("%s: Refactor(J_b): %v", label, err)
		}
		lu.SameFactorBits(t, label, want, f)
		return true
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(38))
		const iters = 60
		compared := 0
		for iter := 0; iter < iters; iter++ {
			ja, perm := lu.ReplayFixture(rng, iter)
			if check(t, fmt.Sprintf("iter %d", iter), ja, lu.Perturbed(ja, rng, 0.1), perm) {
				compared++
			}
		}
		if compared < iters/2 {
			t.Fatalf("only %d of %d refactorizations kept the search's pivots", compared, iters)
		}
	})
	for _, c := range fillCircuits {
		t.Run(c.String(), func(t *testing.T) {
			ja, perm := midRunJacobian(t, c.name, c.scale)
			jb := rescaled(ja, rand.New(rand.NewSource(39)), 1e-4)
			if !check(t, c.String(), ja, jb, perm) {
				t.Fatal("the search factoring J_b left J_a's pivots")
			}
		})
	}
}

// BenchmarkRefactor alternates two matrices so every call is a memo miss —
// the compare, the copy and the numeric pass; "same" is the memo hit. The
// random case is a 2000-row matrix; the circuits' cases are the benchmark
// circuits' mid-run Jacobians in their own column order.
func BenchmarkRefactor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := lu.RandomSPDish(rng, 2000, 10000)
	type refactorCase struct {
		name string
		ms   [2]*sparse.Matrix
		perm []int32
	}
	cases := []refactorCase{{"random2000", [2]*sparse.Matrix{lu.Perturbed(m, rng, 1), m}, lu.MinDegree(m.P)}}
	for _, c := range fillCircuits[:3] {
		j, perm := midRunJacobian(b, c.name, c.scale)
		cases = append(cases, refactorCase{c.String(), [2]*sparse.Matrix{rescaled(j, rng, 1e-3), j}, perm})
	}
	for _, c := range cases {
		f, err := lu.Factor(c.ms[1], lu.Options{ColPerm: c.perm})
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name string
			step int
		}{{"changed", 1}, {"same", 0}} {
			b.Run(c.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.Refactor(c.ms[(i*bc.step)&1]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
