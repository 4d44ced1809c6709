// Package masczip implements the MASC spatiotemporal compressor for sparse
// Jacobian tensors (Li et al., DAC 2024). One Compressor instance is bound
// to a sparsity Pattern — the paper's shared indices — and compresses the
// per-timestep value arrays with three prediction models (temporal,
// MNA-stamp spatial, last-value), best-fit or Markov model selection, and a
// leading-zero-window XOR residual code. Two departures from the paper: a
// diagonal's stamp prediction is spatiotemporal — the reference value moved
// by the change in its row's off-diagonals, not the row's negated sum — so
// that it survives grounded elements (stampD); and the one-bit case is not
// only "the temporal prediction is exact" but "the region's hit predictor is",
// which a blob's flags may make the symmetric mate or that stamp, with runs of
// such hits length-coded (batch.go; DESIGN.md §3).
package masczip

import (
	"masc/internal/sparse"
)

// plan is the per-pattern precomputation shared by every matrix of a
// tensor: region slot lists, stamp-mate tables and chunk balancing data.
// Building it once per simulation is the computational realization of the
// shared-indices idea.
type plan struct {
	pat   *sparse.Pattern
	nnz   int
	rowOf []int32 // row of each slot
	tr    []int32 // slot of the transposed entry, -1 if absent
	diag  []int32 // slot of (r,r) per row, -1 if absent

	// Strictly-upper and strictly-lower slots in row-major order, with
	// per-row pointers so any row range maps to contiguous subslices.
	uSlots, lSlots   []int32
	uRowPtr, lRowPtr []int32 // length n+1

	// Diagonal slots packed contiguously (rows without a diagonal entry are
	// absent), with the owning row alongside and per-row pointers, so the
	// batched region-D coder walks one dense slice exactly like U and L.
	dSlots  []int32
	dRows   []int32
	dRowPtr []int32 // length n+1
}

func newPlan(p *sparse.Pattern) *plan {
	n := int32(p.N)
	pl := &plan{
		pat:     p,
		nnz:     p.NNZ(),
		rowOf:   make([]int32, p.NNZ()),
		tr:      p.TransposeSlots(),
		diag:    p.DiagSlots(),
		uRowPtr: make([]int32, n+1),
		lRowPtr: make([]int32, n+1),
		dRowPtr: make([]int32, n+1),
	}
	for i := int32(0); i < n; i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			pl.rowOf[k] = i
			switch c := p.ColIdx[k]; {
			case c > i:
				pl.uSlots = append(pl.uSlots, k)
			case c < i:
				pl.lSlots = append(pl.lSlots, k)
			}
		}
		if d := pl.diag[i]; d >= 0 {
			pl.dSlots = append(pl.dSlots, d)
			pl.dRows = append(pl.dRows, i)
		}
		pl.uRowPtr[i+1] = int32(len(pl.uSlots))
		pl.lRowPtr[i+1] = int32(len(pl.lSlots))
		pl.dRowPtr[i+1] = int32(len(pl.dSlots))
	}
	return pl
}

// chunkRows partitions rows into at most w contiguous ranges of roughly
// equal nnz. The result has len ≤ w+1 boundaries and is deterministic, so
// encoder and decoder derive identical chunks from (pattern, w).
func (pl *plan) chunkRows(w int) []int32 {
	n := int32(pl.pat.N)
	if w < 1 {
		w = 1
	}
	if int32(w) > n {
		w = int(n)
	}
	bounds := []int32{0}
	total := int64(pl.nnz)
	for c := 1; c < w; c++ {
		target := total * int64(c) / int64(w)
		// First row whose cumulative nnz passes the target.
		row := bounds[len(bounds)-1]
		for row < n && int64(pl.pat.RowPtr[row]) < target {
			row++
		}
		// A last row heavier than the target's remainder would put a bound
		// at n and leave the last chunk empty, which the decoder refuses.
		if row > bounds[len(bounds)-1] && row < n {
			bounds = append(bounds, row)
		}
	}
	bounds = append(bounds, n)
	return bounds
}

// Model-selector symbol spaces, which a miss chooses from. Per region:
//
//	U: 0 temporal, 1 transpose (stamp), 2 -diag(row) (stamp), 3 -diag(col) (stamp)
//	L: 0 temporal, 1 symmetric current transpose (stamp), 2 -diag(row) (stamp), 3 last value
//	D: 0 temporal, 1 reference minus the change in the off-diagonal row sum (stamp; stampD)
//
// A hit is symbol 0 being exact — or, in a blob whose flags say so, symbol 1
// of D, or of L where the mate's row is in the chunk (temporal where it is
// not). After a run of hits the Markov chain's state is the region's hit
// symbol for the blob: 0, or 1 under its flag.
const (
	uSyms = 4
	lSyms = 4
	dSyms = 2
)

// markovCounts is the decision-history table populated during best-fit
// (calibration) matrices: counts[prev][next] transition frequencies.
type markovCounts struct {
	u [uSyms][uSyms]uint32
	l [lSyms][lSyms]uint32
	d [dSyms][dSyms]uint32
}

// add books n best-fit decisions of region rg: sym chosen after prev.
func (m *markovCounts) add(rg region, prev, sym uint8, n uint32) {
	switch rg {
	case regionU:
		m.u[prev][sym] += n
	case regionL:
		m.l[prev][sym] += n
	default:
		m.d[prev][sym] += n
	}
}

func (m *markovCounts) merge(o *markovCounts) {
	for i := range m.u {
		for j := range m.u[i] {
			m.u[i][j] += o.u[i][j]
		}
	}
	for i := range m.l {
		for j := range m.l[i] {
			m.l[i][j] += o.l[i][j]
		}
	}
	for i := range m.d {
		for j := range m.d[i] {
			m.d[i][j] += o.d[i][j]
		}
	}
}

// selectorBits estimates what an explicit-form coding of a blob spends on
// selectors, which is what a Markov table would save it: selLen bits for
// each region's misses that open a run of misses or are among its first
// missRun (sel), and for each further miss that changes symbol, the run's
// count covering the rest. A miss keeps its symbol as often as the
// calibration decisions m counts kept theirs; always, in a region with none.
func (m *markovCounts) selectorBits(runs [3]selRun) int {
	var keep, all [3]uint64
	tally := func(rg region, prev int, row []uint32) {
		for sym, n := range row {
			all[rg] += uint64(n)
			if sym == prev {
				keep[rg] += uint64(n)
			}
		}
	}
	for i := range m.u {
		tally(regionU, i, m.u[i][:])
	}
	for i := range m.l {
		tally(regionL, i, m.l[i][:])
	}
	for i := range m.d {
		tally(regionD, i, m.d[i][:])
	}
	bits := 0
	for rg, r := range runs {
		n := uint64(r.sel)
		if all[rg] > 0 {
			n += uint64(r.miss-r.sel) * (all[rg] - keep[rg]) / all[rg]
		}
		bits += [3]int{2, 2, 1}[rg] * int(n) // regions()'s selLen
	}
	return bits
}

// markovTables is the frozen argmax policy derived from counts; its 18 bits,
// packed in tableBits, travel in every blob that codes its misses without
// selectors, so the decoder (which runs in reverse order) needs no
// encoder-side state.
type markovTables struct {
	u [uSyms]uint8
	l [lSyms]uint8
	d [dSyms]uint8
}

func argmaxRow(row []uint32) uint8 {
	best, bi := uint32(0), 0
	for i, v := range row {
		if v > best {
			best = v
			bi = i
		}
	}
	return uint8(bi)
}

func (m *markovCounts) tables() markovTables {
	var t markovTables
	for i := range m.u {
		t.u[i] = argmaxRow(m.u[i][:])
	}
	for i := range m.l {
		t.l[i] = argmaxRow(m.l[i][:])
	}
	for i := range m.d {
		t.d[i] = argmaxRow(m.d[i][:])
	}
	return t
}

// tableBits is what the packed policy costs a blob.
const tableBits = 24

// pack/unpack move the 18-bit policy through a byte header.
func (t *markovTables) pack() [3]byte {
	var b [3]byte
	b[0] = t.u[0] | t.u[1]<<2 | t.u[2]<<4 | t.u[3]<<6
	b[1] = t.l[0] | t.l[1]<<2 | t.l[2]<<4 | t.l[3]<<6
	b[2] = t.d[0] | t.d[1]<<1
	return b
}

func unpackTables(b [3]byte) markovTables {
	var t markovTables
	for i := 0; i < 4; i++ {
		t.u[i] = (b[0] >> (2 * i)) & 3
		t.l[i] = (b[1] >> (2 * i)) & 3
	}
	t.d[0] = b[2] & 1
	t.d[1] = (b[2] >> 1) & 1
	return t
}
