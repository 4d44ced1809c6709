package lu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"masc/internal/sparse"
)

// randomSPDish builds a diagonally dominant random sparse matrix, which is
// comfortably factorable without pivoting drama.
func randomSPDish(rng *rand.Rand, n, extra int) *sparse.Matrix {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(int32(i), int32(i))
	}
	type edge struct{ i, j int32 }
	edges := map[edge]bool{}
	for e := 0; e < extra; e++ {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i == j {
			continue
		}
		edges[edge{i, j}] = true
		b.Add(i, j)
	}
	m := sparse.NewMatrix(b.Build())
	for e := range edges {
		m.AddAt(e.i, e.j, rng.NormFloat64())
	}
	for i := 0; i < n; i++ {
		rowAbs := 1.0
		lo, hi := m.P.Row(int32(i))
		for k := lo; k < hi; k++ {
			if m.P.ColIdx[k] != int32(i) {
				rowAbs += math.Abs(m.Val[k])
			}
		}
		m.AddAt(int32(i), int32(i), rowAbs+rng.Float64())
	}
	return m
}

// randomIndefinite builds a matrix that needs pivoting: some structural
// diagonal entries are zero (as in MNA voltage-source rows).
func randomIndefinite(rng *rand.Rand, n int) *sparse.Matrix {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(int32(i), int32(i))
		// A ring plus random fill keeps it irreducible.
		b.Add(int32(i), int32((i+1)%n))
		b.Add(int32((i+1)%n), int32(i))
	}
	for e := 0; e < 3*n; e++ {
		b.Add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	m := sparse.NewMatrix(b.Build())
	for k := range m.Val {
		m.Val[k] = rng.NormFloat64()*2 + 0.1
	}
	// Zero out a few diagonals.
	d := m.P.DiagSlots()
	for i := 0; i < n; i += 5 {
		m.Val[d[i]] = 0
	}
	return m
}

func residual(m *sparse.Matrix, x, b []float64) float64 {
	n := m.P.N
	ax := make([]float64, n)
	m.MulVec(x, ax)
	worst := 0.0
	for i := 0; i < n; i++ {
		if r := math.Abs(ax[i] - b[i]); r > worst {
			worst = r
		}
	}
	return worst
}

func residualT(m *sparse.Matrix, x, b []float64) float64 {
	n := m.P.N
	ax := make([]float64, n)
	m.MulVecT(x, ax)
	worst := 0.0
	for i := 0; i < n; i++ {
		if r := math.Abs(ax[i] - b[i]); r > worst {
			worst = r
		}
	}
	return worst
}

func TestSolveDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(60)
		m := randomSPDish(rng, n, 4*n)
		f, err := Factor(m, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		b := make([]float64, n)
		want := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			want[i] = b[i]
		}
		f.Solve(b)
		if r := residual(m, b, want); r > 1e-9 {
			t.Fatalf("iter %d: residual %g", iter, r)
		}
	}
}

func TestSolveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(60)
		m := randomSPDish(rng, n, 4*n)
		f, err := Factor(m, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		b := make([]float64, n)
		want := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			want[i] = b[i]
		}
		f.SolveT(b)
		if r := residualT(m, b, want); r > 1e-9 {
			t.Fatalf("iter %d: residual %g", iter, r)
		}
	}
}

func TestPivotingIndefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 25; iter++ {
		n := 10 + rng.Intn(40)
		m := randomIndefinite(rng, n)
		f, err := Factor(m, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		b := make([]float64, n)
		want := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			want[i] = b[i]
		}
		f.Solve(b)
		if r := residual(m, b, want); r > 1e-6 {
			t.Fatalf("iter %d: residual %g", iter, r)
		}
	}
}

func TestRefactorMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 15; iter++ {
		n := 10 + rng.Intn(40)
		m := randomSPDish(rng, n, 4*n)
		f, err := Factor(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Perturb values (same pattern) and refactor.
		m2 := m.Clone()
		for k := range m2.Val {
			m2.Val[k] *= 1 + 0.1*rng.NormFloat64()
		}
		d := m2.P.DiagSlots()
		for i := 0; i < n; i++ {
			m2.Val[d[i]] += 1 // keep dominance
		}
		if err := f.Refactor(m2); err != nil {
			t.Fatalf("iter %d: refactor: %v", iter, err)
		}
		b := make([]float64, n)
		want := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			want[i] = b[i]
		}
		f.Solve(b)
		if r := residual(m2, b, want); r > 1e-9 {
			t.Fatalf("iter %d: refactor residual %g", iter, r)
		}
		bt := make([]float64, n)
		copy(bt, want)
		f.SolveT(bt)
		if r := residualT(m2, bt, want); r > 1e-9 {
			t.Fatalf("iter %d: refactor transpose residual %g", iter, r)
		}
	}
}

func TestSingularDetected(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.Add(0, 0)
	b.Add(1, 1)
	b.Add(2, 2)
	b.Add(0, 1)
	m := sparse.NewMatrix(b.Build())
	m.AddAt(0, 0, 1)
	m.AddAt(0, 1, 2)
	m.AddAt(1, 1, 3)
	// Row/col 2 is structurally present but numerically zero.
	if _, err := Factor(m, Options{}); err == nil {
		t.Fatal("expected singularity error")
	}
}

func TestRefactorRejectsForeignPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m1 := randomSPDish(rng, 10, 30)
	m2 := randomSPDish(rng, 10, 30)
	f, err := Factor(m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(m2); err == nil {
		t.Fatal("expected error refactoring a different pattern")
	}
}

func TestQuickSolve(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%30) + 2
		m := randomSPDish(rng, n, 3*n)
		fac, err := Factor(m, Options{})
		if err != nil {
			return false
		}
		b := make([]float64, n)
		want := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			want[i] = b[i]
		}
		fac.Solve(b)
		return residual(m, b, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomSPDish(rng, 2000, 10000)
	q := MinDegree(m.P)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(m, Options{ColPerm: q}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomSPDish(rng, 2000, 10000)
	f, err := Factor(m, Options{ColPerm: MinDegree(m.P)})
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, m.P.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	buf := make([]float64, len(rhs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, rhs)
		f.Solve(buf)
	}
}
