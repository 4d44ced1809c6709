package lu

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"masc/internal/sparse"
)

func sameFactorBits(t *testing.T, label string, f, g *LU) {
	t.Helper()
	for _, p := range []struct {
		name string
		a, b []float64
	}{{"lx", f.lx, g.lx}, {"ux", f.ux, g.ux}, {"ud", f.ud, g.ud}} {
		if len(p.a) != len(p.b) {
			t.Fatalf("%s: %s has %d entries, want %d", label, p.name, len(p.a), len(p.b))
		}
		for k := range p.a {
			if math.Float64bits(p.a[k]) != math.Float64bits(p.b[k]) {
				t.Fatalf("%s: %s[%d] = %x, numeric pass gives %x", label, p.name, k,
					math.Float64bits(p.a[k]), math.Float64bits(p.b[k]))
			}
		}
	}
}

// perturbed returns a matrix on m's pattern with perturbed values, so
// Refactor (which requires the identical pattern) sees fresh numerics.
func perturbed(m *sparse.Matrix, rng *rand.Rand, scale float64) *sparse.Matrix {
	out := &sparse.Matrix{P: m.P, Val: append([]float64(nil), m.Val...)}
	for k := range out.Val {
		out.Val[k] += scale * 0.01 * rng.NormFloat64() * (1 + math.Abs(out.Val[k]))
	}
	return out
}

// TestMemoHitMatchesNumericPass feeds random matrix sequences with repeats
// through Refactor and, beside it, through the numeric pass alone: a memo hit
// must leave lx/ux/ud bit-equal to what redoing the work produces, starting
// with Refactor of the very matrix Factor was given.
func TestMemoHitMatchesNumericPass(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 10; iter++ {
		n := 10 + rng.Intn(40)
		cur := randomSPDish(rng, n, 4*n)
		f, err := Factor(cur, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Factor(cur, Options{}) // only ever runs the numeric pass
		if err != nil {
			t.Fatal(err)
		}
		repeat := true // step 0 refactors Factor's own matrix
		for step := 0; step < 30; step++ {
			if !repeat {
				cur = perturbed(cur, rng, 1)
			}
			// A fresh value array each time: the memo compares values, not
			// slice identity.
			m := &sparse.Matrix{P: cur.P, Val: append([]float64(nil), cur.Val...)}
			reused, err := f.refactor(m)
			if err != nil {
				t.Fatalf("iter %d step %d: %v", iter, step, err)
			}
			if reused != repeat {
				t.Fatalf("iter %d step %d: reused = %v on a %s matrix", iter, step, reused,
					map[bool]string{true: "repeated", false: "new"}[repeat])
			}
			if err := g.refactorNumeric(m); err != nil {
				t.Fatalf("iter %d step %d: numeric pass: %v", iter, step, err)
			}
			sameFactorBits(t, "after refactor", f, g)
			repeat = rng.Intn(2) == 0
		}
	}
}

// TestMemoComparesBitPatterns: +0 against −0 and NaNs of different payloads
// compare equal or unordered as floats, but the numeric pass can tell them
// apart, so neither may hit.
func TestMemoComparesBitPatterns(t *testing.T) {
	// Diagonal plus one entry (0, n-1): in natural order that entry is a U
	// entry of the last column whose L column is empty, so a NaN there stays
	// in ux and the refactorization still succeeds.
	const n = 4
	b := sparse.NewBuilder(n)
	for i := int32(0); i < n; i++ {
		b.Add(i, i)
	}
	b.Add(0, n-1)
	m := sparse.NewMatrix(b.Build())
	for i := int32(0); i < n; i++ {
		m.AddAt(i, i, float64(2+i))
	}
	slot := m.P.Find(0, n-1)
	with := func(v float64) *sparse.Matrix {
		out := m.Clone()
		out.Val[slot] = v
		return out
	}
	f, err := Factor(with(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	for _, c := range []struct {
		name string
		v    float64
		hit  bool
	}{
		{"+0 again", 0, true},
		{"-0 after +0", math.Copysign(0, -1), false},
		{"-0 again", math.Copysign(0, -1), true},
		{"NaN payload 1", nan1, false},
		{"NaN payload 1 again", nan1, true},
		{"NaN payload 2", nan2, false},
	} {
		reused, err := f.refactor(with(c.v))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if reused != c.hit {
			t.Fatalf("%s: reused = %v, want %v", c.name, reused, c.hit)
		}
	}
}

// TestMemoDroppedOnPivotDegraded: a failed numeric pass leaves the factors
// half-written, so the same matrix again must fail again — and Factorize must
// re-pivot it, not skip it.
func TestMemoDroppedOnPivotDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 30
	good := randomSPDish(rng, n, 4*n)
	f, err := Factor(good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the diagonal of a column that has another row to pivot on:
	// the recorded pivot no longer dominates it (refactorGrowthLimit).
	csc := good.P.CSC()
	col := int32(-1)
	for c := int32(0); c < int32(n); c++ {
		if csc.ColPtr[c+1]-csc.ColPtr[c] >= 2 {
			col = c
			break
		}
	}
	if col < 0 {
		t.Fatal("fixture has no off-diagonal entries")
	}
	bad := good.Clone()
	bad.Val[bad.P.DiagSlots()[col]] *= 1e-9
	for try := 0; try < 2; try++ {
		if reused, err := f.refactor(bad); !errors.Is(err, ErrPivotDegraded) || reused {
			t.Fatalf("try %d: reused = %v, err = %v; want ErrPivotDegraded", try, reused, err)
		}
	}
	nf, what, err := Factorize(f, bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if what != Factored || nf == f {
		t.Fatalf("Factorize after a degraded refactor: outcome %d, same LU %v; want a fresh Factor", what, nf == f)
	}
	// The degraded LU recovers once it is given a matrix its pivots suit.
	if reused, err := f.refactor(good); err != nil || reused {
		t.Fatalf("refactor of the original matrix after degrade: reused = %v, err = %v", reused, err)
	}
	g, err := Factor(good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameFactorBits(t, "recovered", f, g)
}

// TestFactorizeSurfacesForeignPattern: only ErrPivotDegraded may fall back to
// a fresh Factor; a matrix on another pattern is the caller's bug and must
// not be papered over by re-pivoting.
func TestFactorizeSurfacesForeignPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m1 := randomSPDish(rng, 10, 30)
	m2 := randomSPDish(rng, 10, 30)
	f, err := Factor(m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nf, _, err := Factorize(f, m2, Options{})
	if err == nil || errors.Is(err, ErrPivotDegraded) {
		t.Fatalf("Factorize on a foreign pattern: err = %v", err)
	}
	if nf != f {
		t.Fatal("Factorize replaced the factors on an error")
	}
	if nf, what, err := Factorize(nil, m2, Options{}); err != nil || what != Factored || nf == nil {
		t.Fatalf("Factorize from nil: outcome %d, err %v", what, err)
	}
}

// TestRefactorAndFactorAllocations pins the allocation shape: Refactor never
// allocates, hit or miss, and a Factor drawing a warm scratch from the pool
// makes one allocation per array it keeps, each of exactly the length used.
func TestRefactorAndFactorAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 60
	m1 := randomSPDish(rng, n, 5*n)
	m2 := perturbed(m1, rng, 1)
	perm := MinDegree(m1.P)
	f, err := Factor(m1, Options{ColPerm: perm})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := f.Refactor(m1); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Refactor on a memo hit allocated %v times", a)
	}
	ms := [2]*sparse.Matrix{m2, m1}
	i := 0
	if a := testing.AllocsPerRun(50, func() {
		if err := f.Refactor(ms[i&1]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Fatalf("Refactor on a memo miss allocated %v times", a)
	}

	for name, s := range map[string][2]int{
		"lrow": {len(f.lrow), cap(f.lrow)}, "lx": {len(f.lx), cap(f.lx)},
		"uk": {len(f.uk), cap(f.uk)}, "ux": {len(f.ux), cap(f.ux)},
	} {
		if s[0] != s[1] {
			t.Errorf("%s: len %d, cap %d; Factor must keep exact-length arrays", name, s[0], s[1])
		}
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	// The LU itself, seven length-n arrays, the four fill arrays and the memo.
	const want = 13
	if a := testing.AllocsPerRun(50, func() {
		if _, err := Factor(m1, Options{ColPerm: perm}); err != nil {
			t.Fatal(err)
		}
	}); a != want {
		t.Fatalf("warm Factor allocated %v times, want %d", a, want)
	}
}
