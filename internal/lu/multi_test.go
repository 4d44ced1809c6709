package lu

import (
	"math"
	"math/rand"
	"testing"

	"masc/internal/sparse"
)

// multiFixture factors a random matrix and builds k identical pairs of
// right-hand sides: one set solved individually, one set solved blocked.
func multiFixture(t *testing.T, rng *rand.Rand, n, k int, indefinite bool) (*LU, [][]float64, [][]float64) {
	t.Helper()
	var m *sparse.Matrix
	if indefinite {
		m = randomIndefinite(rng, n)
	} else {
		m = randomSPDish(rng, n, 4*n)
	}
	f, err := Factor(m, Options{ColPerm: MinDegree(m.P)})
	if err != nil {
		t.Fatal(err)
	}
	single := make([][]float64, k)
	multi := make([][]float64, k)
	for r := 0; r < k; r++ {
		single[r] = make([]float64, n)
		multi[r] = make([]float64, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			single[r][i] = v
			multi[r][i] = v
		}
	}
	return f, single, multi
}

// TestSolveMultiBitIdentical pins the tentpole contract: the blocked
// kernel must produce, for every right-hand side, exactly the bits the
// single-RHS kernel produces.
func TestSolveMultiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(70)
		k := 1 + rng.Intn(9)
		f, single, multi := multiFixture(t, rng, n, k, iter%3 == 0)
		for r := range single {
			f.Solve(single[r])
		}
		f.SolveMulti(multi)
		for r := range single {
			for i := range single[r] {
				if math.Float64bits(single[r][i]) != math.Float64bits(multi[r][i]) {
					t.Fatalf("iter %d (n=%d k=%d): rhs %d entry %d: multi %g != single %g",
						iter, n, k, r, i, multi[r][i], single[r][i])
				}
			}
		}
	}
}

func TestSolveTMultiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(70)
		k := 1 + rng.Intn(9)
		f, single, multi := multiFixture(t, rng, n, k, iter%3 == 0)
		for r := range single {
			f.SolveT(single[r])
		}
		f.SolveTMulti(multi)
		for r := range single {
			for i := range single[r] {
				if math.Float64bits(single[r][i]) != math.Float64bits(multi[r][i]) {
					t.Fatalf("iter %d (n=%d k=%d): rhs %d entry %d: multi %g != single %g",
						iter, n, k, r, i, multi[r][i], single[r][i])
				}
			}
		}
	}
}

// TestSolveMultiResidual sanity-checks the blocked kernels against the
// matrix itself, independently of the single-RHS path.
func TestSolveMultiResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 50
	m := randomSPDish(rng, n, 4*n)
	f, err := Factor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := 6
	bs := make([][]float64, k)
	want := make([][]float64, k)
	for r := range bs {
		bs[r] = make([]float64, n)
		want[r] = make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
			want[r][i] = bs[r][i]
		}
	}
	f.SolveMulti(bs)
	for r := range bs {
		if res := residual(m, bs[r], want[r]); res > 1e-9 {
			t.Fatalf("rhs %d: residual %g", r, res)
		}
		copy(bs[r], want[r])
	}
	f.SolveTMulti(bs)
	for r := range bs {
		if res := residualT(m, bs[r], want[r]); res > 1e-9 {
			t.Fatalf("transpose rhs %d: residual %g", r, res)
		}
	}
}

// TestSolveMultiAllocs pins the steady-state allocation count of the
// blocked kernels at zero: the stride-k scratch is grown once and reused.
func TestSolveMultiAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 40
	m := randomSPDish(rng, n, 4*n)
	f, err := Factor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := 8
	bs := make([][]float64, k)
	for r := range bs {
		bs[r] = make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	f.SolveMulti(bs)  // warm the scratch
	f.SolveTMulti(bs) // both buffers
	if a := testing.AllocsPerRun(50, func() { f.SolveMulti(bs) }); a != 0 {
		t.Fatalf("SolveMulti allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { f.SolveTMulti(bs) }); a != 0 {
		t.Fatalf("SolveTMulti allocates %v per run, want 0", a)
	}
}

// benchFactor builds a mid-sized factorization and k right-hand sides for
// the single-vs-blocked comparison.
func benchFactor(b *testing.B, n, k int) (*LU, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	m := randomSPDish(rng, n, 6*n)
	f, err := Factor(m, Options{ColPerm: MinDegree(m.P)})
	if err != nil {
		b.Fatal(err)
	}
	bs := make([][]float64, k)
	for r := range bs {
		bs[r] = make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	f.SolveMulti(bs)
	f.SolveTMulti(bs)
	return f, bs
}

func BenchmarkSolveTSingleLoop(b *testing.B) {
	f, bs := benchFactor(b, 600, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range bs {
			f.SolveT(bs[r])
		}
	}
}

func BenchmarkSolveTMulti(b *testing.B) {
	f, bs := benchFactor(b, 600, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveTMulti(bs)
	}
}

func BenchmarkSolveSingleLoop(b *testing.B) {
	f, bs := benchFactor(b, 600, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range bs {
			f.Solve(bs[r])
		}
	}
}

func BenchmarkSolveMulti(b *testing.B) {
	f, bs := benchFactor(b, 600, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveMulti(bs)
	}
}
