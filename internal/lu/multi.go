package lu

// Blocked multi-right-hand-side solves. The cost of a sparse triangular
// solve is dominated by pointer-chasing through the factor columns (lp/lrow,
// up/uk); when the adjoint sweep solves the same factorization for many
// objectives, traversing those columns once and streaming k right-hand sides
// through each visited entry amortizes that cost k ways. The k values of one
// node live contiguously (stride-k layout), so the inner loop over
// right-hand sides is a dense, cache-friendly sweep.
//
// Both kernels are bit-identical to k independent Solve/SolveT calls: every
// right-hand side sees exactly the same floating-point operations in exactly
// the same order — the interleaving only reorders operations between
// independent solves, never within one.

// multiScratch returns the two stride-k workspaces, growing the backing
// arrays on demand. After the first call with a given k (or any larger
// one), subsequent multi-solves allocate nothing.
func (f *LU) multiScratch(k int) (zs, ws []float64) {
	need := f.n * k
	if cap(f.mw) < need {
		f.mw = make([]float64, need)
	}
	if cap(f.mb) < need {
		f.mb = make([]float64, need)
	}
	return f.mw[:need], f.mb[:need]
}

// SolveMulti solves A·x = b in place for every right-hand side in bs: on
// return each bs[r] holds its solution. The factor columns are traversed
// once for all len(bs) systems. Results are bit-identical to calling Solve
// on each right-hand side individually. bs[r] must not alias each other.
func (f *LU) SolveMulti(bs [][]float64) {
	k := len(bs)
	switch k {
	case 0:
		return
	case 1:
		f.Solve(bs[0])
		return
	}
	n := f.n
	q, prow, lp, lrow, lx, up, uk, ux, ud := f.q, f.prow, f.lp, f.lrow, f.lx, f.up, f.uk, f.ux, f.ud
	zs, ws := f.multiScratch(k)
	// Scatter the right-hand sides into the original-row-indexed workspace.
	for r, b := range bs {
		for i := 0; i < n; i++ {
			ws[i*k+r] = b[i]
		}
	}
	// Forward solve L̂ y = P b, processing pivot steps in order. ws plays
	// the role of the in-place-updated b; zs holds y.
	for kk := 0; kk < n; kk++ {
		base := kk * k
		y := zs[base : base+k]
		pb := int(prow[kk]) * k
		copy(y, ws[pb:pb+k])
		for p := lp[kk]; p < lp[kk+1]; p++ {
			l := lx[p]
			wb := int(lrow[p]) * k
			dst := ws[wb : wb+k]
			for r, yr := range y {
				dst[r] -= yr * l
			}
		}
	}
	// Back solve Û x̂ = y.
	for j := n - 1; j >= 0; j-- {
		base := j * k
		x := zs[base : base+k]
		d := ud[j]
		for r := range x {
			x[r] /= d
		}
		for p := up[j]; p < up[j+1]; p++ {
			u := ux[p]
			ub := int(uk[p]) * k
			dst := zs[ub : ub+k]
			for r, xr := range x {
				dst[r] -= xr * u
			}
		}
	}
	// Un-permute: x[q[j]] = x̂[j].
	for j := 0; j < n; j++ {
		base := j * k
		qj := q[j]
		for r, b := range bs {
			b[qj] = zs[base+r]
		}
	}
}

// SolveTMulti solves Aᵀ·x = b in place for every right-hand side in bs,
// traversing the factor columns once for all len(bs) systems — the adjoint
// sweep's one-factorization-many-objectives kernel. Results are
// bit-identical to calling SolveT on each right-hand side individually.
// bs[r] must not alias each other.
func (f *LU) SolveTMulti(bs [][]float64) {
	k := len(bs)
	switch k {
	case 0:
		return
	case 1:
		f.SolveT(bs[0])
		return
	}
	n := f.n
	q, pinv, prow, lp, lrow, lx, up, uk, ux, ud := f.q, f.pinv, f.prow, f.lp, f.lrow, f.lx, f.up, f.uk, f.ux, f.ud
	zs, _ := f.multiScratch(k)
	// Forward solve Ûᵀ z = ĉ with ĉ[j] = b[q[j]].
	for j := 0; j < n; j++ {
		base := j * k
		z := zs[base : base+k]
		qj := q[j]
		for r, b := range bs {
			z[r] = b[qj]
		}
		for p := up[j]; p < up[j+1]; p++ {
			u := ux[p]
			ub := int(uk[p]) * k
			src := zs[ub : ub+k]
			for r, sr := range src {
				z[r] -= u * sr
			}
		}
		d := ud[j]
		for r := range z {
			z[r] /= d
		}
	}
	// Back solve L̂ᵀ ŷ = z; x[prow[kk]] = ŷ[kk].
	for kk := n - 1; kk >= 0; kk-- {
		base := kk * k
		z := zs[base : base+k]
		for p := lp[kk]; p < lp[kk+1]; p++ {
			l := lx[p]
			sb := int(pinv[lrow[p]]) * k
			src := zs[sb : sb+k]
			for r, sr := range src {
				z[r] -= l * sr
			}
		}
	}
	for kk := 0; kk < n; kk++ {
		base := kk * k
		row := prow[kk]
		for r, b := range bs {
			b[row] = zs[base+r]
		}
	}
}
