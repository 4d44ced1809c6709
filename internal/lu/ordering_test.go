package lu

import (
	"math/rand"
	"slices"
	"testing"

	"masc/internal/sparse"
)

type edge struct{ i, j int32 }

// orderingCase is a structurally unsymmetric pattern given as an edge list,
// so the same pattern can be built with its entries added in another order.
type orderingCase struct {
	name  string
	n     int
	edges []edge
}

func (c orderingCase) pattern(rng *rand.Rand) *sparse.Pattern {
	es := slices.Clone(c.edges)
	if rng != nil {
		rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
	}
	b := sparse.NewBuilder(c.n)
	for _, e := range es {
		b.Add(e.i, e.j)
	}
	return b.Build()
}

// orderingCases covers the shapes a circuit Jacobian takes and the ones that
// break a quotient-graph implementation: empty and tiny patterns, variables
// with no neighbour, several components, one-directional coupling (which
// doubles A + Aᵀ against A and so forces list compactions), and a supply rail
// touching every node, below and above the size at which rails are set aside.
func orderingCases(rng *rand.Rand) []orderingCase {
	cases := []orderingCase{
		{name: "empty", n: 0},
		{name: "single", n: 1, edges: []edge{{0, 0}}},
		{name: "single, no diagonal", n: 1},
		{name: "pair", n: 2, edges: []edge{{0, 0}, {1, 1}, {0, 1}}},
		{name: "pair, uncoupled", n: 2, edges: []edge{{0, 0}, {1, 1}}},
	}
	random := func(name string, n, extra int, oneWay bool) orderingCase {
		c := orderingCase{name: name, n: n}
		for i := 0; i < n; i++ {
			c.edges = append(c.edges, edge{int32(i), int32(i)})
		}
		for e := 0; e < extra; e++ {
			i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
			if oneWay && i > j {
				i, j = j, i
			}
			c.edges = append(c.edges, edge{i, j})
		}
		return c
	}
	for _, n := range []int{3, 17, 60, 250} {
		cases = append(cases,
			random("random", n, 3*n, false),
			random("sparse, isolated nodes", n, n/3, false),
			random("upper triangular", n, 4*n, true),
			random("dense", n, n*n/3, false))
	}
	// Several components: disjoint random blocks.
	blocks := orderingCase{name: "components", n: 120}
	for base := 0; base < 120; base += 30 {
		for e := 0; e < 90; e++ {
			blocks.edges = append(blocks.edges, edge{int32(base + rng.Intn(30)), int32(base + rng.Intn(30))})
		}
	}
	cases = append(cases, blocks)
	for _, n := range []int{12, 400} {
		rail := random("rail", n, 2*n, false)
		for i := 1; i < n; i++ {
			rail.edges = append(rail.edges, edge{0, int32(i)}) // row only: the column comes from Aᵀ
		}
		cases = append(cases, rail)
	}
	return cases
}

// checkOrdering: MinDegree of c is a permutation of 0..n-1, the same on a
// second call, and the same when the entries are added in the order rng
// shuffles them into.
func checkOrdering(t *testing.T, c orderingCase, rng *rand.Rand) {
	t.Helper()
	p := c.pattern(nil)
	ord := MinDegree(p)
	if len(ord) != c.n {
		t.Fatalf("%s n=%d: ordering length %d", c.name, c.n, len(ord))
	}
	seen := make([]bool, c.n)
	for _, v := range ord {
		if v < 0 || int(v) >= c.n || seen[v] {
			t.Fatalf("%s n=%d: not a permutation: %v", c.name, c.n, ord)
		}
		seen[v] = true
	}
	if again := MinDegree(p); !slices.Equal(ord, again) {
		t.Fatalf("%s n=%d: second call differs", c.name, c.n)
	}
	if shuffled := MinDegree(c.pattern(rng)); !slices.Equal(ord, shuffled) {
		t.Fatalf("%s n=%d: ordering depends on the order entries were added in", c.name, c.n)
	}
}

func TestMinDegreeIsDeterministicPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range orderingCases(rng) {
		checkOrdering(t, c, rng)
	}
}

// FuzzMinDegree holds arbitrary small patterns to checkOrdering. The first
// byte picks n in 1..256 (large enough for a supply rail to be set aside),
// each following pair of bytes is one entry (i, j) mod n; duplicates, missing
// diagonals and isolated variables all occur.
func FuzzMinDegree(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1, 1, 0, 1})
	rng := rand.New(rand.NewSource(7))
	for _, c := range orderingCases(rng) {
		if c.n < 1 || c.n > 256 {
			continue
		}
		seed := []byte{byte(c.n - 1)}
		for _, e := range c.edges {
			seed = append(seed, byte(e.i), byte(e.j))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := orderingCase{name: "fuzz", n: 1 + int(data[0])}
		for k := 1; k+1 < len(data); k += 2 {
			c.edges = append(c.edges, edge{int32(int(data[k]) % c.n), int32(int(data[k+1]) % c.n)})
		}
		checkOrdering(t, c, rand.New(rand.NewSource(int64(len(data)))))
	})
}

// TestMinDegreeOnGrid: on a 2-D grid Laplacian the ordering must fill no more
// than a random permutation (it fills several times less), and the factors it
// leads to must still solve the system.
func TestMinDegreeOnGrid(t *testing.T) {
	side := 20
	n := side * side
	b := sparse.NewBuilder(n)
	id := func(r, c int) int32 { return int32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			b.Add(id(r, c), id(r, c))
			if r+1 < side {
				b.Add(id(r, c), id(r+1, c))
				b.Add(id(r+1, c), id(r, c))
			}
			if c+1 < side {
				b.Add(id(r, c), id(r, c+1))
				b.Add(id(r, c+1), id(r, c))
			}
		}
	}
	m := sparse.NewMatrix(b.Build())
	for i := int32(0); i < int32(n); i++ {
		lo, hi := m.P.Row(i)
		for k := lo; k < hi; k++ {
			m.Val[k] = -1
			if m.P.ColIdx[k] == i {
				m.Val[k] = 4
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	randPerm := make([]int32, n)
	for i := range randPerm {
		randPerm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { randPerm[i], randPerm[j] = randPerm[j], randPerm[i] })

	fRand, err := Factor(m, Options{ColPerm: randPerm})
	if err != nil {
		t.Fatal(err)
	}
	fMD, err := Factor(m, Options{ColPerm: MinDegree(m.P)})
	if err != nil {
		t.Fatal(err)
	}
	if fMD.LNNZ()+fMD.UNNZ() > fRand.LNNZ()+fRand.UNNZ() {
		t.Fatalf("minimum-degree fill %d worse than random %d", fMD.LNNZ()+fMD.UNNZ(), fRand.LNNZ()+fRand.UNNZ())
	}
	rhs := make([]float64, n)
	want := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
		want[i] = rhs[i]
	}
	fMD.Solve(rhs)
	if r := residual(m, rhs, want); r > 1e-8 {
		t.Fatalf("residual under the minimum-degree order: %g", r)
	}
}

// TestMinDegreeAllocations: the ordering works in a fixed set of arrays sized
// by the pattern — nothing is allocated per pivot, whatever the size.
func TestMinDegreeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{40, 900} {
		p := randomSPDish(rng, n, 5*n).P
		p.CSC() // cached on the pattern; Factor needs it anyway
		// The result, the graph and its fourteen arrays.
		const most = 16
		if a := testing.AllocsPerRun(20, func() { MinDegree(p) }); a > most {
			t.Fatalf("n=%d: MinDegree allocated %v times, want at most %d", n, a, most)
		}
	}
}

func TestFactorRejectsBadColPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randomSPDish(rng, 8, 20)
	for name, q := range map[string][]int32{
		"short":        {0, 1, 2},
		"duplicate":    {0, 1, 2, 3, 4, 5, 6, 6},
		"out of range": {0, 1, 2, 3, 4, 5, 6, 8},
		"negative":     {0, 1, 2, 3, 4, 5, 6, -1},
	} {
		if _, err := Factor(m, Options{ColPerm: q}); err == nil {
			t.Errorf("%s column permutation accepted", name)
		}
	}
}

// TestQuotientGraphHeapOrder: popping every variable of a freshly built graph
// yields ascending (degree, index), whatever mix of degrees the pattern has.
func TestQuotientGraphHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range orderingCases(rng) {
		if c.n == 0 {
			continue
		}
		g := newQuotientGraph(c.pattern(nil))
		last := int64(-1)
		for len(g.hk) > 0 {
			i := g.popMin()
			if k := int64(g.key(i)); k <= last {
				t.Fatalf("%s n=%d: popped key %#x after %#x", c.name, c.n, k, last)
			} else {
				last = k
			}
		}
	}
}
