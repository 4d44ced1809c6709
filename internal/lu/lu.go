// Package lu implements a sparse LU factorization for the MNA systems the
// simulator solves at every Newton iteration. The algorithm is left-looking
// Gilbert–Peierls with threshold partial pivoting. Because every Jacobian of
// a transient run shares one sparsity pattern, the factorization records its
// symbolic structure (pivot order, fill pattern) once and subsequent
// matrices are refactorized numerically in-place, walking the factors' own
// column lists in the order the search met their rows, which is where the
// simulator spends most of its solve time — unless the matrix is
// bit-identical to the one already factored (every step of a linear circuit
// at a fixed step size), in which case Refactor does nothing at all. A fresh
// factorization handed an earlier one on the same pattern (Options.Hint)
// replays that one's structure instead of searching, as long as the search
// would choose the same pivots. Factorize is the one refactor-else-factor
// policy the forward Newton loop, the reverse sweeps and the direct method
// share.
package lu

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

	// Hint, if non-nil, is an earlier factorization whose pivot order Factor
	// tries first. On the same pattern and column order, Factor runs the
	// numeric pass along the hint's recorded structure and applies its own
	// pivot rule in every column; at the first column where the rule picks
	// another row it starts over with the pivot search. Either way the result
	// is bit-identical to Factor without a hint. The hint is only read, so
	// any number of factorizations may use one concurrently.
	Hint *LU
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

	// U columns: pivot-step indices k < j; diagonal in ud.
	up []int32
	uk []int32
	ux []float64
	ud []float64

	// A column's U and L entries are in the order Factor met their rows,
	// the reach's topological order, which is the order Refactor applies the
	// U updates in. ppos[j] is the pivot's position among column j's L rows
	// in that order, which a replay's first-maximum rule needs.
	ppos []int32

	// Value memo: a bit image of the a.Val most recently handed to Factor or
	// Refactor, and whether the numeric factors above were computed from it.
	// Refactor returns at once on a bit-identical matrix (see Refactor).
	// pivoted says more: the recorded pivots are the ones Factor chooses for
	// memo, so the factors are Factor's own result for it, and a replay of a
	// bit-identical matrix copies them (see replay).
	memo    []float64
	memoOK  bool
	pivoted bool

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

// factorScratch is the working set only Factor needs: the four fill arrays
// while their final length is still unknown, and the DFS state. Factor builds
// into a pooled scratch and keeps exact-length copies, so a factorization
// neither pays append's regrowth nor retains its slack, and concurrent
// Factor calls (two analyses sharing one circuit) each draw their own.
type factorScratch struct {
	lrow, uk []int32
	lx, ux   []float64

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
// the symbolic structure for later Refactor calls. With opt.Hint it replays
// the hint's pivot order where the pivot search would choose it.
func Factor(a *sparse.Matrix, opt Options) (*LU, error) {
	f, _, err := factor(a, opt)
	return f, err
}

// factor is Factor that also reports whether it replayed opt.Hint.
func factor(a *sparse.Matrix, opt Options) (f *LU, replayed bool, err error) {
	if h := opt.Hint; h != nil && h.pat == a.P && len(a.Val) == len(h.memo) && h.sameOrder(opt.ColPerm) {
		if f := h.replay(a); f != nil {
			return f, true, nil
		}
	}
	f, err = search(a, opt)
	return f, false, err
}

// search is the factorization with a pivot search in every column.
func search(a *sparse.Matrix, opt Options) (*LU, error) {
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
		n:    n,
		pat:  a.P,
		q:    q,
		pinv: make([]int32, n),
		prow: make([]int32, n),
		lp:   make([]int32, 1, n+1),
		up:   make([]int32, 1, n+1),
		ud:   make([]float64, n),
		ppos: make([]int32, n),
		w:    make([]float64, n),
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
	f.memo, f.memoOK, f.pivoted = exact(a.Val), true, true
	return f, nil
}

// sameOrder reports whether perm, as Options.ColPerm, names f's column
// order.
func (f *LU) sameOrder(perm []int32) bool {
	if perm == nil {
		for j, c := range f.q {
			if c != int32(j) {
				return false
			}
		}
		return true
	}
	return slices.Equal(f.q, perm)
}

// replay factors a, a matrix on f's pattern, along f's recorded structure:
// the numeric pass with Factor's pivot rule checked in every column (see
// numeric). The new factors share f's symbolic arrays, which nothing writes
// after Factor, and own their numeric ones. When f's factors are Factor's own
// for values bit-identical to a's, replay copies them. It returns nil at the
// first column where the rule picks a row other than f's pivot, or none.
//
// The result is bit-identical to Factor(a): while every pivot agrees, the
// reach of each column, its topological order and therefore every
// floating-point operation are the ones Factor performs.
func (f *LU) replay(a *sparse.Matrix) *LU {
	g := &LU{
		n: f.n, pat: f.pat, q: f.q, pinv: f.pinv, prow: f.prow,
		lp: f.lp, lrow: f.lrow, up: f.up, uk: f.uk, ppos: f.ppos,
		memo: exact(a.Val), memoOK: true, pivoted: true,
		w: make([]float64, f.n),
	}
	if f.memoOK && f.pivoted && sameBits(f.memo, a.Val) {
		g.lx, g.ux, g.ud = exact(f.lx), exact(f.ux), exact(f.ud)
		return g
	}
	g.lx = make([]float64, len(f.lx))
	g.ux = make([]float64, len(f.ux))
	g.ud = make([]float64, f.n)
	if g.numeric(a, true) != nil {
		return nil
	}
	return g
}

// sameBits reports whether a and b hold the same bit patterns
// (math.Float64bits, so −0 ≠ +0 and only same-payload NaNs match).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
	w, pinv, lp, lrow, lx := f.w, f.pinv, f.lp, sc.lrow, sc.lx
	// Scatter A(:,c) into the workspace.
	for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
		w[csc.RowIdx[p]] = a.Val[csc.Slot[p]]
	}
	// Sparse triangular solve in topological order.
	for _, node := range sc.post {
		k := pinv[node]
		if k < 0 {
			continue
		}
		ukj := w[node]
		if ukj != 0 {
			for p := lp[k]; p < lp[k+1]; p++ {
				w[lrow[p]] -= ukj * lx[p]
			}
		}
	}
	// Pivot selection among unpivoted reach rows.
	var pivot int32 = -1
	var pmax float64
	for _, node := range sc.post {
		if pinv[node] >= 0 {
			continue
		}
		if v := math.Abs(w[node]); v > pmax {
			pmax = v
			pivot = node
		}
	}
	if pivot < 0 || pmax == 0 {
		return ErrSingular
	}
	// Prefer the structural diagonal row if it is acceptable.
	if pinv[c] < 0 && sc.mark[c] == sc.tick {
		if v := math.Abs(w[c]); v >= pivotThreshold*pmax {
			pivot = c
		}
	}
	d := w[pivot]
	pinv[pivot] = j
	f.prow[j] = pivot
	f.ud[j] = d

	// Collect U entries (pivoted rows) and L entries (remaining rows) in DFS
	// topological order, the order numeric replays. The solves do not care:
	// both substitution directions only require whole columns to be
	// processed in pivot order.
	for _, node := range sc.post {
		k := pinv[node]
		switch {
		case node == pivot:
			f.ppos[j] = int32(len(sc.lrow)) - lp[j]
		case k >= 0 && k < j:
			sc.uk = append(sc.uk, k)
			sc.ux = append(sc.ux, w[node])
		default: // unpivoted → L
			sc.lrow = append(sc.lrow, node)
			sc.lx = append(sc.lx, w[node]/d)
		}
		w[node] = 0
	}
	f.lp = append(f.lp, int32(len(sc.lrow)))
	f.up = append(f.up, int32(len(sc.uk)))
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
	f.pivoted = false
	copy(f.memo[d:], val[d:])
	if err := f.refactorNumeric(a); err != nil {
		return false, err
	}
	f.memoOK = true
	return false, nil
}

// errReplayPivot stops a replay at a column where Factor's pivot rule picks a
// row other than the recorded one.
var errReplayPivot = errors.New("lu: replay pivot differs from the pivot search's")

// refactorNumeric is the numeric pass of Refactor along the recorded pivots.
func (f *LU) refactorNumeric(a *sparse.Matrix) error { return f.numeric(a, false) }

// numeric recomputes lx, ux and ud for a along the recorded structure,
// walking each column's U list (the updates, in Factor's order), its pivot
// and its L list. A refactorization (replay false) checks each recorded
// pivot against the growth limit and returns ErrPivotDegraded when one has
// collapsed. A replay instead applies Factor's pivot rule to the column —
// the first maximum over the unpivoted reach rows in topological order, the
// diagonal row if it is within pivotThreshold of it — and returns
// errReplayPivot where that rule picks another row or finds none.
func (f *LU) numeric(a *sparse.Matrix, replay bool) error {
	csc := a.P.CSC()
	colPtr, rowIdx, slot, val := csc.ColPtr, csc.RowIdx, csc.Slot, a.Val
	q, pinv, prow, ppos := f.q, f.pinv, f.prow, f.ppos
	lp, lrow, lx, up, uk, ux, ud := f.lp, f.lrow, f.lx, f.up, f.uk, f.ux, f.ud
	w := f.w
	for j := 0; j < f.n; j++ {
		c := q[j]
		for p := colPtr[c]; p < colPtr[c+1]; p++ {
			w[rowIdx[p]] = val[slot[p]]
		}
		// A U row is final when its turn comes: every row whose L column
		// holds it precedes it in topological order.
		for p := up[j]; p < up[j+1]; p++ {
			k := uk[p]
			r := prow[k]
			ukj := w[r]
			ux[p] = ukj
			w[r] = 0
			if ukj != 0 {
				rows, xs := span(lrow, lx, lp[k], lp[k+1])
				for i, row := range rows {
					w[row] -= ukj * xs[i]
				}
			}
		}
		piv := prow[j]
		d := w[piv]
		rows, xs := span(lrow, lx, lp[j], lp[j+1])
		var err error
		if replay {
			pp := ppos[j]
			pivot, pmax := firstMax(w, rows[:pp], -1, 0)
			if v := math.Abs(d); v > pmax {
				pivot, pmax = piv, v
			}
			pivot, pmax = firstMax(w, rows[pp:], pivot, pmax)
			// Factor prefers the diagonal row when it is in the reach and
			// unpivoted; outside the reach w[c] is 0, which passes only when
			// pmax is 0 and the column fails anyway.
			if pinv[c] >= int32(j) && math.Abs(w[c]) >= pivotThreshold*pmax {
				pivot = c
			}
			if pivot != piv || pmax == 0 {
				err = errReplayPivot
			}
		} else if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			err = ErrPivotDegraded
		} else if _, maxw := firstMax(w, rows, -1, 0); maxw > refactorGrowthLimit*math.Abs(d) {
			// Pivot-growth guard: the recorded pivot must still dominate its
			// column well enough that the L entries stay bounded.
			err = ErrPivotDegraded
		}
		w[piv] = 0
		if err != nil {
			// Clear workspace before bailing out.
			for _, r := range rows {
				w[r] = 0
			}
			return err
		}
		ud[j] = d
		for i, r := range rows {
			xs[i] = w[r] / d
			w[r] = 0
		}
	}
	return nil
}

// span returns idx[lo:hi] and x[lo:hi] with a length the compiler can see is
// shared, so a loop ranging over the first indexes the second unchecked.
func span(idx []int32, x []float64, lo, hi int32) ([]int32, []float64) {
	rows := idx[lo:hi]
	return rows, x[lo:hi:hi][:len(rows)]
}

// firstMax returns the first of rows whose |w| exceeds pmax and every |w|
// before it, and that magnitude; pivot and pmax when none does.
func firstMax(w []float64, rows []int32, pivot int32, pmax float64) (int32, float64) {
	for _, r := range rows {
		if v := math.Abs(w[r]); v > pmax {
			pivot, pmax = r, v
		}
	}
	return pivot, pmax
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
	// Replayed: a fresh factorization that followed Options.Hint's pivots
	// because the pivot search would have chosen them. Its result is
	// Factored's, bit for bit.
	Replayed
)

// Count adds one to the counter matching o; a replay counts as a
// factorization, because its result is Factor's.
func (o Outcome) Count(factored, refactored, reused *int) {
	switch o {
	case Reused:
		*reused++
	case Refactored:
		*refactored++
	case Factored, Replayed:
		*factored++
	}
}

// Factorize returns factors of a: f itself after a Refactor when f is
// non-nil and its recorded pivots still hold, otherwise a fresh Factor with
// opt (Replayed when it followed opt.Hint). Only ErrPivotDegraded falls back
// to re-pivoting; any other Refactor error (a foreign pattern, a short value
// array) is returned, with f unchanged, because re-pivoting would hide it.
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
	nf, replayed, err := factor(a, opt)
	switch {
	case err != nil:
		return f, 0, err
	case replayed:
		return nf, Replayed, nil
	}
	return nf, Factored, nil
}

// Solve solves A·x = b in place: on return b holds x.
func (f *LU) Solve(b []float64) {
	n := f.n
	q, prow, lp, lrow, lx, up, uk, ux, ud := f.q, f.prow, f.lp, f.lrow, f.lx, f.up, f.uk, f.ux, f.ud
	y := f.w[:n] // reuse workspace; fully overwritten then consumed
	// Forward solve L̂ y = P b, processing pivot steps in order.
	for k := 0; k < n; k++ {
		yk := b[prow[k]]
		y[k] = yk
		if yk != 0 {
			rows, xs := span(lrow, lx, lp[k], lp[k+1])
			for i, r := range rows {
				b[r] -= yk * xs[i]
			}
		}
	}
	// Back solve Û x̂ = y.
	for j := n - 1; j >= 0; j-- {
		xj := y[j] / ud[j]
		y[j] = xj
		if xj != 0 {
			ks, xs := span(uk, ux, up[j], up[j+1])
			for i, k := range ks {
				y[k] -= xj * xs[i]
			}
		}
	}
	// Un-permute: x[q[j]] = x̂[j].
	for j := 0; j < n; j++ {
		b[q[j]] = y[j]
		y[j] = 0
	}
}

// SolveT solves Aᵀ·x = b in place: on return b holds x.
func (f *LU) SolveT(b []float64) {
	n := f.n
	q, pinv, prow, lp, lrow, lx, up, uk, ux, ud := f.q, f.pinv, f.prow, f.lp, f.lrow, f.lx, f.up, f.uk, f.ux, f.ud
	z := f.w[:n]
	// Forward solve Ûᵀ z = ĉ with ĉ[j] = b[q[j]].
	for j := 0; j < n; j++ {
		s := b[q[j]]
		ks, xs := span(uk, ux, up[j], up[j+1])
		for i, k := range ks {
			s -= xs[i] * z[k]
		}
		z[j] = s / ud[j]
	}
	// Back solve L̂ᵀ ŷ = z; x[prow[k]] = ŷ[k].
	for k := n - 1; k >= 0; k-- {
		s := z[k]
		rows, xs := span(lrow, lx, lp[k], lp[k+1])
		for i, r := range rows {
			s -= xs[i] * z[pinv[r]]
		}
		z[k] = s
	}
	for k := 0; k < n; k++ {
		b[prow[k]] = z[k]
	}
	clear(z)
}
