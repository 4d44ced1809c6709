package sparse

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func buildRandomPattern(rng *rand.Rand, n, entries int) *Pattern {
	b := NewBuilder(n)
	for k := 0; k < entries; k++ {
		b.Add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	// Always include the diagonal so matrices are plausibly factorable.
	for i := 0; i < n; i++ {
		b.Add(int32(i), int32(i))
	}
	return b.Build()
}

func TestBuilderDedupAndOrder(t *testing.T) {
	b := NewBuilder(4)
	b.Add(2, 3)
	b.Add(0, 1)
	b.Add(2, 3) // duplicate
	b.Add(2, 0)
	b.Add(0, 0)
	p := b.Build()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", p.NNZ())
	}
	wantCols := []int32{0, 1, 0, 3}
	for i, c := range p.ColIdx {
		if c != wantCols[i] {
			t.Fatalf("colIdx = %v, want %v", p.ColIdx, wantCols)
		}
	}
}

// TestBuilderMatchesSortReference checks the row-bucket Build against the
// sort-then-deduplicate construction it replaced, on random triplet sets with
// heavy duplication, empty rows and empty builders.
func TestBuilderMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		type entry struct{ i, j int32 }
		var ents []entry
		rows := 1 + rng.Intn(n) // the other rows stay empty
		for k := rng.Intn(6 * n); k > 0; k-- {
			e := entry{int32(rng.Intn(rows)), int32(rng.Intn(n))}
			if rng.Intn(3) == 0 && len(ents) > 0 {
				e = ents[rng.Intn(len(ents))]
			}
			ents = append(ents, e)
			b.Add(e.i, e.j)
		}
		sort.Slice(ents, func(a, c int) bool {
			if ents[a].i != ents[c].i {
				return ents[a].i < ents[c].i
			}
			return ents[a].j < ents[c].j
		})
		want := &Pattern{N: n, RowPtr: make([]int32, n+1)}
		for k, e := range ents {
			if k > 0 && e == ents[k-1] {
				continue
			}
			want.ColIdx = append(want.ColIdx, e.j)
			want.RowPtr[e.i+1]++
		}
		for i := 0; i < n; i++ {
			want.RowPtr[i+1] += want.RowPtr[i]
		}
		got := b.Build()
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("trial %d (n=%d, %d triplets):\n got RowPtr %v ColIdx %v\nwant RowPtr %v ColIdx %v",
				trial, n, len(ents), got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
		}
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewBuilder(3).Add(3, 0)
}

func TestFind(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := buildRandomPattern(rng, 30, 120)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every structural entry is found at its own slot.
	for i := int32(0); i < int32(p.N); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			if got := p.Find(i, p.ColIdx[k]); got != k {
				t.Fatalf("Find(%d,%d) = %d, want %d", i, p.ColIdx[k], got, k)
			}
		}
	}
	// A missing entry returns -1.
	for i := int32(0); i < int32(p.N); i++ {
		present := map[int32]bool{}
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			present[p.ColIdx[k]] = true
		}
		for j := int32(0); j < int32(p.N); j++ {
			if !present[j] {
				if got := p.Find(i, j); got != -1 {
					t.Fatalf("Find(%d,%d) = %d, want -1", i, j, got)
				}
			}
		}
	}
}

func TestDiagAndTransposeSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := buildRandomPattern(rng, 25, 100)
	diag := p.DiagSlots()
	for i := int32(0); i < int32(p.N); i++ {
		if diag[i] != p.Find(i, i) {
			t.Fatalf("diag slot mismatch at %d", i)
		}
	}
	tr := p.TransposeSlots()
	for i := int32(0); i < int32(p.N); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			j := p.ColIdx[k]
			want := p.Find(j, i)
			if tr[k] != want {
				t.Fatalf("transpose slot of (%d,%d): got %d, want %d", i, j, tr[k], want)
			}
			if tr[k] >= 0 {
				// Transposing twice returns to the original slot.
				if tr[tr[k]] != k {
					t.Fatalf("transpose not involutive at slot %d", k)
				}
			}
		}
	}
}

func TestMatrixAtAddAt(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0)
	b.Add(0, 2)
	b.Add(1, 1)
	b.Add(2, 0)
	b.Add(2, 2)
	p := b.Build()
	m := NewMatrix(p)
	m.AddAt(0, 2, 5)
	m.AddAt(0, 2, 2)
	m.AddAt(2, 0, -1)
	if got := m.At(0, 2); got != 7 {
		t.Fatalf("At(0,2) = %g, want 7", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %g, want 0 (absent)", got)
	}
	if got := m.At(2, 0); got != -1 {
		t.Fatalf("At(2,0) = %g, want -1", got)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		n := 1 + rng.Intn(30)
		p := buildRandomPattern(rng, n, n*3)
		m := NewMatrix(p)
		for k := range m.Val {
			m.Val[k] = rng.NormFloat64()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		yt := make([]float64, n)
		m.MulVec(x, y)
		m.MulVecT(x, yt)
		d := m.Dense()
		for i := 0; i < n; i++ {
			var want, wantT float64
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
				wantT += d[j][i] * x[j]
			}
			if diff := y[i] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want)
			}
			if diff := yt[i] - wantT; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("MulVecT[%d] = %g, want %g", i, yt[i], wantT)
			}
		}
	}
}

func TestUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		n := 1 + rng.Intn(20)
		a := buildRandomPattern(rng, n, n*2)
		c := buildRandomPattern(rng, n, n*2)
		u, mapA, mapB := Union(a, c)
		if err := u.Validate(); err != nil {
			t.Fatal(err)
		}
		// Every a-entry and c-entry lands on the matching union slot.
		for i := int32(0); i < int32(n); i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				slot := mapA[k]
				if u.ColIdx[slot] != a.ColIdx[k] || slot < u.RowPtr[i] || slot >= u.RowPtr[i+1] {
					t.Fatalf("mapA wrong for a slot %d", k)
				}
			}
			for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
				slot := mapB[k]
				if u.ColIdx[slot] != c.ColIdx[k] || slot < u.RowPtr[i] || slot >= u.RowPtr[i+1] {
					t.Fatalf("mapB wrong for c slot %d", k)
				}
			}
		}
		// Union nnz is |A| + |C| - |A∩C|.
		inter := 0
		for i := int32(0); i < int32(n); i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if c.Find(i, a.ColIdx[k]) >= 0 {
					inter++
				}
			}
		}
		if u.NNZ() != a.NNZ()+c.NNZ()-inter {
			t.Fatalf("union nnz = %d, want %d", u.NNZ(), a.NNZ()+c.NNZ()-inter)
		}
	}
}

func TestAXPYInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 12
	a := buildRandomPattern(rng, n, 40)
	c := buildRandomPattern(rng, n, 40)
	u, mapA, mapB := Union(a, c)
	ma := NewMatrix(a)
	mc := NewMatrix(c)
	for k := range ma.Val {
		ma.Val[k] = rng.NormFloat64()
	}
	for k := range mc.Val {
		mc.Val[k] = rng.NormFloat64()
	}
	mu := NewMatrix(u)
	AXPYInto(mu, 2.0, ma, mapA)
	AXPYInto(mu, -3.0, mc, mapB)
	da, dc, du := ma.Dense(), mc.Dense(), mu.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 2*da[i][j] - 3*dc[i][j]
			if diff := du[i][j] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("union value (%d,%d) = %g, want %g", i, j, du[i][j], want)
			}
		}
	}
}

func TestQuickPatternInvariant(t *testing.T) {
	f := func(seed int64, sz uint8, ent uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%40) + 1
		p := buildRandomPattern(rng, n, int(ent%300))
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := buildRandomPattern(rng, 2000, 14000)
	m := NewMatrix(p)
	for k := range m.Val {
		m.Val[k] = rng.NormFloat64()
	}
	x := make([]float64, p.N)
	y := make([]float64, p.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

// TestCSCConcurrentFirstUse: concurrent analyses' lu.Factor calls can
// each be the first to ask a pattern for its CSC view. Run under -race.
func TestCSCConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := buildRandomPattern(rng, 50, 250)
	views := make([]*CSCView, 8)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			views[g] = p.CSC()
		}(g)
	}
	wg.Wait()
	for g, v := range views {
		if v == nil || v != views[0] {
			t.Fatalf("goroutine %d got view %p, goroutine 0 got %p", g, v, views[0])
		}
	}
	if got := int(views[0].ColPtr[p.N]); got != p.NNZ() {
		t.Fatalf("view holds %d entries, pattern has %d", got, p.NNZ())
	}
}
