// Package sparse provides the compressed sparse row (CSR) structures used
// throughout the simulator. A Pattern is an immutable sparsity structure —
// the "shared indices" of the MASC paper — and a Matrix is a value array
// bound to a Pattern. Many matrices (one per Newton iteration per timestep)
// share a single Pattern, which is what makes index storage O(1) in the
// number of timesteps.
package sparse

import (
	"fmt"
	"slices"
	"sync"
)

// Pattern is an immutable CSR sparsity pattern of an N×N matrix.
// Column indices within each row are strictly ascending.
type Pattern struct {
	N      int
	RowPtr []int32 // length N+1
	ColIdx []int32 // length NNZ

	diag []int32 // slot of (i,i) per row, -1 if absent; built lazily
	tr   []int32 // slot of the transposed entry per slot, -1 if absent

	// The CSC view is what lu.Factor and Refactor read a matrix through;
	// two analyses sharing one circuit may each be the first to ask.
	cscOnce sync.Once
	csc     *CSCView
}

// CSCView is a column-oriented view of a CSR pattern. Slot[k] maps the k-th
// CSC position back to the CSR slot holding the same entry, so a Matrix's
// values can be read column-wise without copying.
type CSCView struct {
	ColPtr []int32
	RowIdx []int32
	Slot   []int32
}

// CSC returns the cached column-oriented view, building it on first use.
// Safe for concurrent use. Callers must not modify the returned view.
func (p *Pattern) CSC() *CSCView {
	p.cscOnce.Do(p.buildCSC)
	return p.csc
}

func (p *Pattern) buildCSC() {
	nnz := p.NNZ()
	v := &CSCView{
		ColPtr: make([]int32, p.N+1),
		RowIdx: make([]int32, nnz),
		Slot:   make([]int32, nnz),
	}
	for _, c := range p.ColIdx {
		v.ColPtr[c+1]++
	}
	for j := 0; j < p.N; j++ {
		v.ColPtr[j+1] += v.ColPtr[j]
	}
	next := make([]int32, p.N)
	copy(next, v.ColPtr[:p.N])
	for i := int32(0); i < int32(p.N); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			c := p.ColIdx[k]
			pos := next[c]
			next[c]++
			v.RowIdx[pos] = i
			v.Slot[pos] = k
		}
	}
	p.csc = v
}

// NNZ reports the number of structurally nonzero entries.
func (p *Pattern) NNZ() int { return len(p.ColIdx) }

// Find returns the slot index of entry (i,j), or -1 if the entry is not in
// the pattern. It binary-searches within row i.
func (p *Pattern) Find(i, j int32) int32 {
	lo, hi := p.RowPtr[i], p.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := p.ColIdx[mid]; {
		case c == j:
			return mid
		case c < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// Row returns the slot range [lo, hi) of row i.
func (p *Pattern) Row(i int32) (lo, hi int32) {
	return p.RowPtr[i], p.RowPtr[i+1]
}

// DiagSlots returns, for each row i, the slot of (i,i) or -1. The slice is
// computed once and cached; callers must not modify it.
func (p *Pattern) DiagSlots() []int32 {
	if p.diag == nil {
		d := make([]int32, p.N)
		for i := int32(0); i < int32(p.N); i++ {
			d[i] = p.Find(i, i)
		}
		p.diag = d
	}
	return p.diag
}

// TransposeSlots returns, for each slot k holding entry (i,j), the slot of
// (j,i) or -1. Cached; callers must not modify it.
func (p *Pattern) TransposeSlots() []int32 {
	if p.tr == nil {
		tr := make([]int32, p.NNZ())
		for i := int32(0); i < int32(p.N); i++ {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				tr[k] = p.Find(p.ColIdx[k], i)
			}
		}
		p.tr = tr
	}
	return p.tr
}

// Validate checks structural invariants; it is intended for tests and for
// patterns decoded from external data.
func (p *Pattern) Validate() error {
	if len(p.RowPtr) != p.N+1 {
		return fmt.Errorf("sparse: rowPtr length %d, want %d", len(p.RowPtr), p.N+1)
	}
	if p.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: rowPtr[0] = %d, want 0", p.RowPtr[0])
	}
	if int(p.RowPtr[p.N]) != len(p.ColIdx) {
		return fmt.Errorf("sparse: rowPtr[N] = %d, want nnz %d", p.RowPtr[p.N], len(p.ColIdx))
	}
	for i := 0; i < p.N; i++ {
		if p.RowPtr[i] > p.RowPtr[i+1] {
			return fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			c := p.ColIdx[k]
			if c < 0 || int(c) >= p.N {
				return fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
			if k > p.RowPtr[i] && p.ColIdx[k-1] >= c {
				return fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
		}
	}
	return nil
}

// Builder accumulates structural entries (duplicates allowed) and produces a
// Pattern. It is used during netlist setup to discover the MNA pattern.
type Builder struct {
	n    int
	rows []int32
	cols []int32
}

// NewBuilder returns a Builder for an n×n pattern.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add records entry (i,j). Out-of-range entries panic: they indicate a
// stamping bug, not a data error.
func (b *Builder) Add(i, j int32) {
	if i < 0 || int(i) >= b.n || j < 0 || int(j) >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d×%d", i, j, b.n, b.n))
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
}

// Len reports the number of recorded (possibly duplicate) entries.
func (b *Builder) Len() int { return len(b.rows) }

// Build sorts, deduplicates and freezes the recorded entries into a Pattern:
// a counting pass buckets the columns by row, then each row is sorted and
// deduplicated in place — no comparison sort over the whole triplet list.
func (b *Builder) Build() *Pattern {
	start := make([]int32, b.n+1)
	for _, i := range b.rows {
		start[i+1]++
	}
	for i := 0; i < b.n; i++ {
		start[i+1] += start[i]
	}
	cols := make([]int32, len(b.cols))
	next := append([]int32(nil), start[:b.n]...)
	for k, i := range b.rows {
		cols[next[i]] = b.cols[k]
		next[i]++
	}
	p := &Pattern{N: b.n, RowPtr: make([]int32, b.n+1)}
	out := int32(0)
	for i := 0; i < b.n; i++ {
		row := cols[start[i]:start[i+1]]
		slices.Sort(row)
		prev := int32(-1)
		for _, j := range row {
			if j != prev {
				cols[out], prev = j, j
				out++
			}
		}
		p.RowPtr[i+1] = out
	}
	p.ColIdx = slices.Clip(cols[:out])
	return p
}

// Union merges two patterns over the same dimension and returns the merged
// pattern together with slot maps: mapA[k] is the slot in the union holding
// a's k-th entry (likewise mapB). It is used to assemble J = C/h + G on a
// single shared pattern.
func Union(a, c *Pattern) (u *Pattern, mapA, mapB []int32) {
	if a.N != c.N {
		panic("sparse: union of patterns with different dimensions")
	}
	n := a.N
	u = &Pattern{N: n, RowPtr: make([]int32, n+1)}
	mapA = make([]int32, a.NNZ())
	mapB = make([]int32, c.NNZ())
	for i := int32(0); i < int32(n); i++ {
		ka, ea := a.RowPtr[i], a.RowPtr[i+1]
		kb, eb := c.RowPtr[i], c.RowPtr[i+1]
		for ka < ea || kb < eb {
			var col int32
			takeA, takeB := false, false
			switch {
			case ka < ea && kb < eb:
				ca, cb := a.ColIdx[ka], c.ColIdx[kb]
				if ca < cb {
					col, takeA = ca, true
				} else if cb < ca {
					col, takeB = cb, true
				} else {
					col, takeA, takeB = ca, true, true
				}
			case ka < ea:
				col, takeA = a.ColIdx[ka], true
			default:
				col, takeB = c.ColIdx[kb], true
			}
			slot := int32(len(u.ColIdx))
			u.ColIdx = append(u.ColIdx, col)
			if takeA {
				mapA[ka] = slot
				ka++
			}
			if takeB {
				mapB[kb] = slot
				kb++
			}
		}
		u.RowPtr[i+1] = int32(len(u.ColIdx))
	}
	return u, mapA, mapB
}
