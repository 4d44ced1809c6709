// Package lu implements a sparse LU factorization for the MNA systems the
// simulator solves at every Newton iteration. The algorithm is left-looking
// Gilbert–Peierls with threshold partial pivoting. Because every Jacobian of
// a transient run shares one sparsity pattern, the factorization records its
// symbolic structure (reach sets, pivot order, fill pattern) once and
// subsequent matrices are refactorized numerically in-place, which is where
// the simulator spends most of its solve time — unless the matrix is
// bit-identical to the one already factored (every step of a linear circuit
// at a fixed step size), in which case Refactor does nothing at all.
// Factorize is the one refactor-else-factor policy the forward Newton loop,
// the reverse sweeps and the direct method share.
package lu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"masc/internal/sparse"
)

// ErrSingular is returned when no acceptable pivot exists for a column.
var ErrSingular = errors.New("lu: matrix is numerically singular")

// ErrPivotDegraded is returned by Refactor when the recorded pivot order has
// become numerically unusable; the caller should Factor afresh.
var ErrPivotDegraded = errors.New("lu: recorded pivot order degraded, refactor from scratch")

// pivotThreshold τ: the structurally "diagonal" row is kept as pivot if its
// magnitude is at least τ times the column maximum. Smaller values preserve
// the diagonal (and hence sparsity) more aggressively.
const pivotThreshold = 0.1

// refactorGrowthLimit bounds the L-entry magnitude Refactor accepts before
// declaring the recorded pivot order degraded. A fresh factorization with
// τ=0.1 keeps |L| ≤ 10; letting reuse drift three decades beyond that trades
// at most ~4 digits for refactorization speed. Past it the
// pivot has genuinely collapsed — e.g. refactoring a DC Jacobian (diagonal
// gmin ≈ 1e-12 on capacitor-only nodes) with pivots recorded for a transient
// Jacobian (diagonal C/h) — and silent acceptance poisons every subsequent
// solve at far above roundoff.
const refactorGrowthLimit = 1e4

// Options configures a factorization.
type Options struct {
	// ColPerm is a fill-reducing column pre-ordering: column j of the
	// factorization is original column ColPerm[j]. Nil means natural order.
	ColPerm []int32
}

// LU holds both factors and the recorded symbolic structure.
type LU struct {
	n    int
	pat  *sparse.Pattern
	q    []int32 // column order: factor col j == original col q[j]
	pinv []int32 // pinv[origRow] = pivot step, or the step it was pivoted at
	prow []int32 // prow[k] = original row pivoted at step k

	// L columns: original row indices; the implicit unit diagonal is NOT
	// stored. lrow holds original rows r with pinv[r] > k.
	lp   []int32
	lrow []int32
	lx   []float64

	// U columns: pivot-step indices k < j, sorted ascending; diagonal in ud.
	up []int32
	uk []int32
	ux []float64
	ud []float64

	// Recorded numeric recipe for Refactor: per column, the reach in
	// topological order (original rows) and each node's destination:
	// >= 0: index into ux (U node; k = pinv[row]); -1: pivot; -2..: L node
	// encoded as -(lxIndex+2).
	topoPtr  []int32
	topoRow  []int32
	topoDest []int32

	// Value memo: a bit image of the a.Val most recently handed to Factor or
	// Refactor, and whether the numeric factors above were computed from it.
	// Refactor returns at once on a bit-identical matrix (see Refactor).
	memo   []float64
	memoOK bool

	w []float64 // workspace, len n, zero outside active reach

	// Stride-k workspaces of the multi-RHS solves, grown on demand and
	// reused so repeated SolveMulti/SolveTMulti calls allocate nothing.
	mw []float64 // pivot-step-indexed (y / z)
	mb []float64 // original-row-indexed (permuted b)
}

// N returns the matrix dimension.
func (f *LU) N() int { return f.n }

// LNNZ and UNNZ report factor fill (excluding unit/diagonal entries).
func (f *LU) LNNZ() int { return len(f.lrow) }
func (f *LU) UNNZ() int { return len(f.uk) }

// factorScratch is the working set only Factor needs: the six fill arrays
// while their final length is still unknown, and the DFS state. Factor builds
// into a pooled scratch and keeps exact-length copies, so a factorization
// neither pays append's regrowth nor retains its slack, and concurrent
// Factor calls (two analyses sharing one circuit) each draw their own.
type factorScratch struct {
	lrow, uk          []int32
	lx, ux            []float64
	topoRow, topoDest []int32

	mark []int32 // DFS visit stamp per original row
	tick int32
	stk  []int32 // DFS stack
	post []int32 // topological order buffer
}

var scratchPool = sync.Pool{New: func() any { return new(factorScratch) }}

// reset empties the scratch for an n×n factorization, keeping capacity.
func (sc *factorScratch) reset(n int) {
	sc.lrow, sc.uk = sc.lrow[:0], sc.uk[:0]
	sc.lx, sc.ux = sc.lx[:0], sc.ux[:0]
	sc.topoRow, sc.topoDest = sc.topoRow[:0], sc.topoDest[:0]
	if cap(sc.mark) < n {
		sc.mark = make([]int32, n)
	}
	sc.mark = sc.mark[:n]
	clear(sc.mark)
	sc.tick = 0
}

// exact copies src into an allocation of exactly its length (slices.Clone
// and append may round the capacity up to a size class).
func exact[T any](src []T) []T {
	dst := make([]T, len(src))
	copy(dst, src)
	return dst
}

// Factor computes the LU factorization of a, choosing pivots, and records
// the symbolic structure for later Refactor calls.
func Factor(a *sparse.Matrix, opt Options) (*LU, error) {
	n := a.P.N
	sc := scratchPool.Get().(*factorScratch)
	defer scratchPool.Put(sc)
	sc.reset(n)
	q := opt.ColPerm
	if q == nil {
		q = make([]int32, n)
		for i := range q {
			q[i] = int32(i)
		}
	} else {
		if len(q) != n {
			return nil, fmt.Errorf("lu: column permutation length %d, want %d", len(q), n)
		}
		// A repeated index would factor a different matrix, or fail as
		// ErrSingular on a column that is fine.
		sc.tick++
		for j, c := range q {
			if c < 0 || int(c) >= n || sc.mark[c] == sc.tick {
				return nil, fmt.Errorf("lu: ColPerm[%d] = %d: not a permutation of 0..%d", j, c, n-1)
			}
			sc.mark[c] = sc.tick
		}
	}
	f := &LU{
		n:       n,
		pat:     a.P,
		q:       q,
		pinv:    make([]int32, n),
		prow:    make([]int32, n),
		lp:      make([]int32, 1, n+1),
		up:      make([]int32, 1, n+1),
		ud:      make([]float64, n),
		w:       make([]float64, n),
		topoPtr: make([]int32, 1, n+1),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	csc := a.P.CSC()
	for j := 0; j < n; j++ {
		if err := f.factorColumn(sc, a, csc, int32(j)); err != nil {
			return nil, fmt.Errorf("lu: column %d (original %d): %w", j, f.q[j], err)
		}
	}
	f.lrow, f.lx = exact(sc.lrow), exact(sc.lx)
	f.uk, f.ux = exact(sc.uk), exact(sc.ux)
	f.topoRow, f.topoDest = exact(sc.topoRow), exact(sc.topoDest)
	f.memo, f.memoOK = exact(a.Val), true
	return f, nil
}

// dfsReach computes the reach of column c's structural rows through the
// columns of L pivoted so far, leaving the nodes in topological order in
// sc.post (dependencies first).
func (f *LU) dfsReach(sc *factorScratch, csc *sparse.CSCView, c int32) {
	sc.tick++
	sc.post = sc.post[:0]
	for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
		root := csc.RowIdx[p]
		if sc.mark[root] == sc.tick {
			continue
		}
		// Iterative DFS with an explicit edge-cursor stack.
		sc.stk = sc.stk[:0]
		sc.stk = append(sc.stk, root, 0)
		sc.mark[root] = sc.tick
		for len(sc.stk) > 0 {
			node := sc.stk[len(sc.stk)-2]
			cur := sc.stk[len(sc.stk)-1]
			k := f.pinv[node]
			expanded := false
			if k >= 0 { // pivoted: children are rows of L column k
				lo, hi := f.lp[k], f.lp[k+1]
				for p2 := lo + cur; p2 < hi; p2++ {
					child := sc.lrow[p2]
					if sc.mark[child] != sc.tick {
						sc.stk[len(sc.stk)-1] = p2 - lo + 1
						sc.stk = append(sc.stk, child, 0)
						sc.mark[child] = sc.tick
						expanded = true
						break
					}
				}
			}
			if !expanded {
				sc.stk = sc.stk[:len(sc.stk)-2]
				sc.post = append(sc.post, node)
			}
		}
	}
	// sc.post is a valid topological order (children recorded before
	// parents), which is the order the sparse triangular solve needs when
	// processed from the END: we want dependencies processed first, and a
	// node's dependencies (the L-columns that update it) are its DFS
	// descendants... For the left-looking update we must process U nodes so
	// that a node is finalized before its column updates others. Reverse
	// postorder gives that.
	for i, j := 0, len(sc.post)-1; i < j; i, j = i+1, j-1 {
		sc.post[i], sc.post[j] = sc.post[j], sc.post[i]
	}
}

func (f *LU) factorColumn(sc *factorScratch, a *sparse.Matrix, csc *sparse.CSCView, j int32) error {
	c := f.q[j]
	f.dfsReach(sc, csc, c)
	// Scatter A(:,c) into the workspace.
	for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
		f.w[csc.RowIdx[p]] = a.Val[csc.Slot[p]]
	}
	// Sparse triangular solve in topological order.
	for _, node := range sc.post {
		k := f.pinv[node]
		if k < 0 {
			continue
		}
		ukj := f.w[node]
		if ukj != 0 {
			for p := f.lp[k]; p < f.lp[k+1]; p++ {
				f.w[sc.lrow[p]] -= ukj * sc.lx[p]
			}
		}
	}
	// Pivot selection among unpivoted reach rows.
	var pivot int32 = -1
	var pmax float64
	for _, node := range sc.post {
		if f.pinv[node] >= 0 {
			continue
		}
		if v := math.Abs(f.w[node]); v > pmax {
			pmax = v
			pivot = node
		}
	}
	if pivot < 0 || pmax == 0 {
		return ErrSingular
	}
	// Prefer the structural diagonal row if it is acceptable.
	if f.pinv[c] < 0 && sc.mark[c] == sc.tick {
		if v := math.Abs(f.w[c]); v >= pivotThreshold*pmax {
			pivot = c
		}
	}
	d := f.w[pivot]
	f.pinv[pivot] = j
	f.prow[j] = pivot
	f.ud[j] = d

	// Collect U entries (pivoted rows) and L entries (remaining rows),
	// recording the refactor recipe in DFS topological order. Entry order
	// within a column is irrelevant to the solves: both substitution
	// directions only require whole columns to be processed in pivot order.
	for _, node := range sc.post {
		sc.topoRow = append(sc.topoRow, node)
		k := f.pinv[node]
		switch {
		case node == pivot:
			sc.topoDest = append(sc.topoDest, -1)
		case k >= 0 && k < j:
			sc.topoDest = append(sc.topoDest, int32(len(sc.uk)))
			sc.uk = append(sc.uk, k)
			sc.ux = append(sc.ux, f.w[node])
		default: // unpivoted → L
			sc.topoDest = append(sc.topoDest, -(int32(len(sc.lrow)) + 2))
			sc.lrow = append(sc.lrow, node)
			sc.lx = append(sc.lx, f.w[node]/d)
		}
		f.w[node] = 0
	}
	f.lp = append(f.lp, int32(len(sc.lrow)))
	f.up = append(f.up, int32(len(sc.uk)))
	f.topoPtr = append(f.topoPtr, int32(len(sc.topoRow)))
	return nil
}

// Refactor recomputes the numeric factors for a matrix with the same
// pattern, reusing the recorded pivot order and symbolic structure. If a
// recorded pivot has collapsed numerically it returns ErrPivotDegraded.
//
// A matrix whose values are bit-identical (math.Float64bits, so −0 ≠ +0 and
// only same-payload NaNs match) to the one the current factors were computed
// from returns at once: the numeric pass is a pure function of the recorded
// structure and the values, so it would reproduce lx/ux/ud exactly.
func (f *LU) Refactor(a *sparse.Matrix) error {
	_, err := f.refactor(a)
	return err
}

// refactor is Refactor that also reports whether the value memo hit.
func (f *LU) refactor(a *sparse.Matrix) (reused bool, err error) {
	if a.P != f.pat {
		return false, errors.New("lu: Refactor requires the pattern used by Factor")
	}
	if len(a.Val) != len(f.memo) {
		return false, fmt.Errorf("lu: Refactor got %d values for a pattern of %d", len(a.Val), len(f.memo))
	}
	// f.memo always holds a complete image of the last matrix seen, so only
	// the tail from the first differing entry needs copying.
	val := a.Val[:len(f.memo)]
	d := 0
	for d < len(val) && math.Float64bits(f.memo[d]) == math.Float64bits(val[d]) {
		d++
	}
	if d == len(val) && f.memoOK {
		return true, nil
	}
	// Invalidate before the numeric pass: an ErrPivotDegraded exit leaves the
	// factors half-written, and the same matrix again must not be skipped.
	f.memoOK = false
	copy(f.memo[d:], val[d:])
	if err := f.refactorNumeric(a); err != nil {
		return false, err
	}
	f.memoOK = true
	return false, nil
}

// refactorNumeric is the numeric pass of Refactor along the recorded pivots.
func (f *LU) refactorNumeric(a *sparse.Matrix) error {
	csc := a.P.CSC()
	for j := 0; j < f.n; j++ {
		c := f.q[j]
		for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
			f.w[csc.RowIdx[p]] = a.Val[csc.Slot[p]]
		}
		lo, hi := f.topoPtr[j], f.topoPtr[j+1]
		// Apply the recorded updates in the recorded topological order.
		for t := lo; t < hi; t++ {
			node := f.topoRow[t]
			k := f.pinv[node]
			if node == f.prow[j] || k > int32(j) {
				continue // pivot or L node: no update from it
			}
			ukj := f.w[node]
			dst := f.topoDest[t]
			f.ux[dst] = ukj
			if ukj != 0 {
				for p := f.lp[k]; p < f.lp[k+1]; p++ {
					f.w[f.lrow[p]] -= ukj * f.lx[p]
				}
			}
		}
		d := f.w[f.prow[j]]
		bad := d == 0 || math.IsNaN(d) || math.IsInf(d, 0)
		if !bad {
			// Pivot-growth guard: the recorded pivot must still dominate its
			// column well enough that the L entries stay bounded.
			maxw := 0.0
			for t := lo; t < hi; t++ {
				if f.topoDest[t] < -1 {
					if a := math.Abs(f.w[f.topoRow[t]]); a > maxw {
						maxw = a
					}
				}
			}
			bad = maxw > refactorGrowthLimit*math.Abs(d)
		}
		if bad {
			// Clear workspace before bailing out.
			for t := lo; t < hi; t++ {
				f.w[f.topoRow[t]] = 0
			}
			return ErrPivotDegraded
		}
		f.ud[j] = d
		for t := lo; t < hi; t++ {
			node := f.topoRow[t]
			dst := f.topoDest[t]
			if dst < -1 {
				f.lx[-(dst + 2)] = f.w[node] / d
			}
			f.w[node] = 0
		}
	}
	return nil
}

// Outcome says how Factorize brought the factors up to date with a matrix.
type Outcome uint8

const (
	// Reused: the values were bit-identical to the ones already factored.
	Reused Outcome = iota
	// Refactored: a numeric pass along the recorded pivots.
	Refactored
	// Factored: a fresh pivot search (no factors yet, or ErrPivotDegraded).
	Factored
)

// Count adds one to the counter matching o.
func (o Outcome) Count(factored, refactored, reused *int) {
	switch o {
	case Reused:
		*reused++
	case Refactored:
		*refactored++
	case Factored:
		*factored++
	}
}

// Factorize returns factors of a: f itself after a Refactor when f is
// non-nil and its recorded pivots still hold, otherwise a fresh Factor with
// opt. Only ErrPivotDegraded falls back to re-pivoting; any other Refactor
// error (a foreign pattern, a short value array) is returned, with f
// unchanged, because re-pivoting would hide it.
func Factorize(f *LU, a *sparse.Matrix, opt Options) (*LU, Outcome, error) {
	if f != nil {
		reused, err := f.refactor(a)
		switch {
		case err == nil && reused:
			return f, Reused, nil
		case err == nil:
			return f, Refactored, nil
		case !errors.Is(err, ErrPivotDegraded):
			return f, 0, err
		}
	}
	nf, err := Factor(a, opt)
	if err != nil {
		return f, 0, err
	}
	return nf, Factored, nil
}

// Solve solves A·x = b in place: on return b holds x.
func (f *LU) Solve(b []float64) {
	n := f.n
	y := f.w // reuse workspace; fully overwritten then consumed
	// Forward solve L̂ y = P b, processing pivot steps in order.
	for k := 0; k < n; k++ {
		yk := b[f.prow[k]]
		y[k] = yk
		if yk != 0 {
			for p := f.lp[k]; p < f.lp[k+1]; p++ {
				b[f.lrow[p]] -= yk * f.lx[p]
			}
		}
	}
	// Back solve Û x̂ = y.
	for j := n - 1; j >= 0; j-- {
		xj := y[j] / f.ud[j]
		y[j] = xj
		if xj != 0 {
			for p := f.up[j]; p < f.up[j+1]; p++ {
				y[f.uk[p]] -= xj * f.ux[p]
			}
		}
	}
	// Un-permute: x[q[j]] = x̂[j].
	for j := 0; j < n; j++ {
		b[f.q[j]] = y[j]
		y[j] = 0
	}
}

// SolveT solves Aᵀ·x = b in place: on return b holds x.
func (f *LU) SolveT(b []float64) {
	n := f.n
	z := f.w
	// Forward solve Ûᵀ z = ĉ with ĉ[j] = b[q[j]].
	for j := 0; j < n; j++ {
		s := b[f.q[j]]
		for p := f.up[j]; p < f.up[j+1]; p++ {
			s -= f.ux[p] * z[f.uk[p]]
		}
		z[j] = s / f.ud[j]
	}
	// Back solve L̂ᵀ ŷ = z; x[prow[k]] = ŷ[k].
	for k := n - 1; k >= 0; k-- {
		s := z[k]
		for p := f.lp[k]; p < f.lp[k+1]; p++ {
			s -= f.lx[p] * z[f.pinv[f.lrow[p]]]
		}
		z[k] = s
	}
	for k := 0; k < n; k++ {
		b[f.prow[k]] = z[k]
	}
	for k := 0; k < n; k++ {
		z[k] = 0
	}
}
