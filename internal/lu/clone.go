package lu

// Clone returns an independent factorization that shares f's immutable
// symbolic structure (column order, pivot order, fill pattern, and the
// recorded refactor recipe) but owns private copies of the numeric factors
// and scratch, so the clone and the original can Refactor and solve
// concurrently from the same recorded state.
//
// The windowed adjoint engine depends on this: each window's first
// factorize must behave exactly as the serial sweep's would at that step,
// which means starting from the same recorded pivot order — Refactor's
// numerics are a pure function of that structure and the incoming matrix,
// and its ErrPivotDegraded fallback path (a fresh Factor) is reproduced
// identically by the clone.
func (f *LU) Clone() *LU {
	if f == nil {
		return nil
	}
	return &LU{
		n:   f.n,
		pat: f.pat,
		tau: f.tau,
		// Write-once in Factor, read-only in Refactor and the solves:
		// shared between the original and every clone.
		q:        f.q,
		pinv:     f.pinv,
		prow:     f.prow,
		lp:       f.lp,
		lrow:     f.lrow,
		up:       f.up,
		uk:       f.uk,
		topoPtr:  f.topoPtr,
		topoRow:  f.topoRow,
		topoDest: f.topoDest,
		// Overwritten by Refactor: private copies.
		lx: exact(f.lx),
		ux: exact(f.ux),
		ud: exact(f.ud),
		// The value memo travels with the factors it describes, so a clone's
		// first Refactor skips exactly when the original's would.
		memo:   exact(f.memo),
		memoOK: f.memoOK,
		// Scratch. w is zero outside an active Factor/Refactor call, so a
		// fresh zero slice is equivalent.
		w: make([]float64, f.n),
	}
}
