package lu

import (
	"math"

	"masc/internal/sparse"
)

// MinDegree computes an approximate-minimum-degree ordering of the
// symmetrized pattern A + Aᵀ. The returned permutation lists original indices
// in elimination order and is suitable as Options.ColPerm. Circuit Jacobians
// are structurally near-symmetric and Factor keeps the structural diagonal as
// pivot whenever it passes the threshold test, so the fill of LU under this
// column order tracks the Cholesky fill of A + Aᵀ that minimum degree
// greedily minimizes.
//
// The elimination graph is a quotient graph (Amestoy, Davis & Duff's AMD):
// an eliminated pivot becomes an element whose variable list stands for the
// clique it created, elements reachable through a new pivot are absorbed
// into it, and indistinguishable variables are merged into supervariables,
// so no fill edge is ever materialised and the working storage never exceeds
// the input's. A variable's priority is (approximate external degree, lowest
// original index of the supervariable): the result is a pure function of the
// pattern, which a resumed run relies on to replay the pivot order of the
// run it continues.
func MinDegree(p *sparse.Pattern) []int32 {
	n := int32(p.N)
	order := make([]int32, 0, n)
	if n == 0 {
		return order
	}
	g := newQuotientGraph(p)
	iw, pe, ln, elen, nv, deg, w := g.iw, g.pe, g.ln, g.elen, g.nv, g.deg, g.w
	hhead, hnext, hkey, mnext := g.hhead, g.hnext, g.hkey, g.mnext
	var nel int32    // original variables eliminated so far
	var lemax int32  // largest element degree seen
	wflg := int64(2) // marks below wflg are stale
	live := n - g.rails
	for nel < live {
		me := g.popMin()
		nvpiv := nv[me]
		nel += nvpiv
		nv[me] = -nvpiv // flagged: filtered out of the lists scanned below

		// Form element me: the live variables adjacent to pivot me directly
		// or through one of its elements, which me absorbs.
		var degme, pme1, pme2 int32
		switch {
		case ln[me] == 0: // isolated: an empty element
		case elen[me] == 0:
			// No elements: the element is me's own variable list, in place.
			pme1 = pe[me]
			pme2 = g.gather(pme1, pme1, ln[me], &degme)
		default:
			need := ln[me] - elen[me]
			for k := pe[me]; k < pe[me]+elen[me]; k++ {
				need += ln[iw[k]]
			}
			if need > n {
				need = n
			}
			if g.pfree+need > int32(len(iw)) {
				g.compact()
			}
			pme1 = g.pfree
			pme2 = pme1
			pp, ne := pe[me], elen[me]
			for k := int32(0); k < ne; k++ {
				e := iw[pp+k]
				pme2 = g.gather(pme2, pe[e], ln[e], &degme)
				pe[e], w[e] = -1, 0 // absorbed into me
			}
			pme2 = g.gather(pme2, pp+ne, ln[me]-ne, &degme)
			g.pfree = pme2
		}

		// Pass 1: for every element e adjacent to a variable of Lme, leave
		// w[e]-wflg = |Le \ Lme| (in original variables).
		for k := pme1; k < pme2; k++ {
			i := iw[k]
			nvi := int64(-nv[i])
			for _, e := range iw[pe[i] : pe[i]+elen[i]] {
				if we := w[e]; we >= wflg {
					w[e] = we - nvi
				} else if we != 0 {
					w[e] = int64(deg[e]) + wflg - nvi
				}
			}
		}

		// Pass 2: prune each variable's list (absorbed and covered elements,
		// variables now reachable through me), put me at its front, bound
		// its degree, and hash it for supervariable detection.
		for k := pme1; k < pme2; k++ {
			i := iw[k]
			p1 := pe[i]
			p2, p3 := p1+elen[i], p1+ln[i]
			pn := p1
			var d int32
			var hash uint32
			for _, e := range iw[p1:p2] {
				we := w[e]
				if we == 0 {
					continue
				}
				if dext := int32(we - wflg); dext > 0 {
					d += dext
					iw[pn] = e
					pn++
					hash += uint32(e)
				} else {
					pe[e], w[e] = -1, 0 // Le ⊆ Lme: aggressive absorption
				}
			}
			pv := pn
			for _, j := range iw[p2:p3] {
				if nvj := nv[j]; nvj > 0 {
					d += nvj
					iw[pn] = j
					pn++
					hash += uint32(j)
				}
			}
			if pn == p1 {
				// Only me is left: i is indistinguishable from the pivot and
				// is eliminated with it.
				nvi := -nv[i]
				degme -= nvi
				nvpiv += nvi
				nel += nvi
				g.retire(i, me)
				continue
			}
			if d < deg[i] {
				deg[i] = d
			}
			// i lost me or an absorbed element, so pn < p3: there is room to
			// shift one variable and one element and put me first.
			iw[pn] = iw[pv]
			iw[pv] = iw[p1]
			iw[p1] = me
			ln[i] = pn - p1 + 1
			elen[i] = pv - p1 + 1
			h := int32(hash % uint32(n))
			hkey[i] = h
			hnext[i] = hhead[h]
			hhead[h] = i
		}
		if degme > lemax {
			lemax = degme
		}
		wflg += int64(lemax)

		// Supervariable detection: variables of Lme with identical lists are
		// indistinguishable from here on and are merged, the lowest index
		// staying principal.
		for k := pme1; k < pme2; k++ {
			if nv[iw[k]] >= 0 {
				continue
			}
			h := hkey[iw[k]]
			i := hhead[h]
			hhead[h] = -1
			for i >= 0 && hnext[i] >= 0 {
				li, ei := ln[i], elen[i]
				for q := pe[i] + 1; q < pe[i]+li; q++ {
					w[iw[q]] = wflg
				}
				prev := i
				for j := hnext[i]; j >= 0; {
					same := ln[j] == li && elen[j] == ei
					for q := pe[j] + 1; same && q < pe[j]+li; q++ {
						same = w[iw[q]] == wflg
					}
					next := hnext[j]
					switch {
					case !same:
						prev = j
					case j > i:
						hnext[prev] = next
						g.merge(i, j)
					default: // j takes over i's place at the head of the chain
						hnext[prev] = next
						hnext[j] = hnext[i]
						if prev == i {
							prev = j
						}
						g.merge(j, i)
						i = j
					}
					j = next
				}
				wflg++
				i = hnext[i]
			}
		}

		// Final degrees of the surviving variables; Lme shrinks to them.
		pdst := pme1
		for k := pme1; k < pme2; k++ {
			i := iw[k]
			nvi := -nv[i]
			if nvi <= 0 {
				continue
			}
			nv[i] = nvi
			d := deg[i] + degme - nvi
			if lim := live - nel - nvi; d > lim {
				d = lim
			}
			deg[i] = d
			g.fix(i)
			iw[pdst] = i
			pdst++
		}
		if pme2 == g.pfree {
			g.pfree = pdst
		}
		nv[me] = 0
		ln[me] = pdst - pme1
		if pdst == pme1 {
			pe[me], w[me] = -1, 0
		} else {
			pe[me], w[me], deg[me] = pme1, 1, degme
		}
		for m := me; m >= 0; m = mnext[m] {
			order = append(order, m)
		}
	}
	for i := int32(0); i < n; i++ {
		if g.hpos[i] < 0 {
			order = append(order, i)
		}
	}
	return order
}

// quotientGraph is MinDegree's working state. Node i is a live variable
// (nv[i] > 0), a live element (w[i] != 0 after i was a pivot) or dead
// (pe[i] < 0). A variable's list iw[pe[i]:pe[i]+ln[i]] holds elen[i]
// elements, then variables; an element's list holds variables only. Lists
// may name dead or merged variables (nv == 0), which every scan skips.
type quotientGraph struct {
	n     int32
	rails int32 // variables left out of the graph and ordered last
	iw    []int32
	pfree int32 // iw[pfree:] is free

	pe, ln, elen []int32
	nv           []int32 // supervariable size; 0 once dead, < 0 while in the pivot's element
	deg          []int32 // variable: approximate external degree; element: |Le|
	w            []int64 // element: 0 if dead, else a mark relative to wflg

	hhead, hnext, hkey []int32 // hash buckets of the supervariable detection
	mnext, mtail       []int32 // members of a supervariable, principal first

	// 4-ary min-heap of the live principal variables, keyed deg<<32 | index
	// so that ties in degree go to the lowest index; hpos[i] is i's slot, -1
	// for a rail.
	hk   []uint64
	hpos []int32
}

// newQuotientGraph builds the adjacency of A + Aᵀ without its diagonal.
func newQuotientGraph(p *sparse.Pattern) *quotientGraph {
	n := int32(p.N)
	csc := p.CSC()
	ints := func() []int32 { return make([]int32, n) }
	g := &quotientGraph{
		n: n, pe: ints(), ln: ints(), elen: ints(), nv: ints(), deg: ints(),
		w: make([]int64, n), hhead: ints(), hnext: ints(), hkey: ints(),
		mnext: ints(), mtail: ints(), hk: make([]uint64, n), hpos: ints(),
		// A + Aᵀ has at most 2·nnz(A) entries; the n on top is the room a new
		// element needs after a compaction (live lists never outgrow the
		// input), the unused part of the 2·nnz is what makes compactions rare.
		iw: make([]int32, 2*p.NNZ()+int(n)),
	}
	for i := int32(0); i < n; i++ {
		d := symRow(p, csc, i, g.iw[g.pfree:])
		g.pe[i] = -1
		if d > 0 {
			g.pe[i] = g.pfree
			g.pfree += d
		}
		g.ln[i], g.nv[i], g.w[i] = d, 1, 1
		g.hhead[i], g.mnext[i], g.mtail[i] = -1, -1, i
	}
	// A variable adjacent to more than 10·√n others — a supply rail — would
	// have its whole list rescanned each time a neighbour is eliminated, O(n²)
	// for a rail touching everything, only to be ordered last anyway. AMD's
	// rule: such variables leave the graph now and close the ordering.
	limit := max(16, int32(10*math.Sqrt(float64(n))))
	for i := int32(0); i < n; i++ {
		if g.ln[i] > limit {
			g.nv[i], g.pe[i], g.ln[i], g.hpos[i] = 0, -1, 0, -1
			g.rails++
		}
	}
	g.hk = g.hk[:0]
	for i := int32(0); i < n; i++ {
		if g.hpos[i] < 0 {
			continue
		}
		if g.rails > 0 && g.pe[i] >= 0 {
			lo, dst := g.pe[i], g.pe[i]
			for _, j := range g.iw[lo : lo+g.ln[i]] {
				if g.nv[j] != 0 {
					g.iw[dst] = j
					dst++
				}
			}
			if g.ln[i] = dst - lo; dst == lo {
				g.pe[i] = -1
			}
		}
		g.deg[i] = g.ln[i]
		g.hk = append(g.hk, 0)
		g.sift(int32(len(g.hk))-1, g.key(i))
	}
	return g
}

// symRow writes the off-diagonal column indices of row i of A + Aᵀ — the
// merge of row i and column i of A, both ascending — to dst and returns how
// many there are.
func symRow(p *sparse.Pattern, csc *sparse.CSCView, i int32, dst []int32) int32 {
	a, aEnd := p.RowPtr[i], p.RowPtr[i+1]
	b, bEnd := csc.ColPtr[i], csc.ColPtr[i+1]
	var cnt int32
	for a < aEnd || b < bEnd {
		var j int32
		switch {
		case b == bEnd || a < aEnd && p.ColIdx[a] < csc.RowIdx[b]:
			j = p.ColIdx[a]
			a++
		case a == aEnd || csc.RowIdx[b] < p.ColIdx[a]:
			j = csc.RowIdx[b]
			b++
		default:
			j = p.ColIdx[a]
			a++
			b++
		}
		if j == i {
			continue
		}
		dst[cnt] = j
		cnt++
	}
	return cnt
}

// gather appends the live variables of iw[src:src+cnt] not yet in the
// pivot's element to iw[dst:], flags them, adds their sizes to *degme and
// returns the new end. dst ≤ src, so gathering a list onto itself is safe.
func (g *quotientGraph) gather(dst, src, cnt int32, degme *int32) int32 {
	for _, i := range g.iw[src : src+cnt] {
		if nvi := g.nv[i]; nvi > 0 {
			*degme += nvi
			g.nv[i] = -nvi
			g.iw[dst] = i
			dst++
		}
	}
	return dst
}

// retire removes variable j from the graph and appends its members to those
// of into.
func (g *quotientGraph) retire(j, into int32) {
	g.nv[j], g.pe[j], g.ln[j] = 0, -1, 0
	g.remove(j)
	g.mnext[g.mtail[into]] = j
	g.mtail[into] = g.mtail[j]
}

// merge folds supervariable j, indistinguishable from i, into i. Both are in
// the pivot's element, so their sizes are negated.
func (g *quotientGraph) merge(i, j int32) {
	g.nv[i] += g.nv[j]
	if g.deg[j] < g.deg[i] {
		g.deg[i] = g.deg[j]
	}
	g.retire(j, i)
}

// compact slides every live list to the front of iw. The first entry of each
// list is parked in pe while its slot holds the owner's mark.
func (g *quotientGraph) compact() {
	for i := int32(0); i < g.n; i++ {
		if q := g.pe[i]; q >= 0 {
			g.pe[i] = g.iw[q]
			g.iw[q] = -i - 1
		}
	}
	var dst int32
	for src := int32(0); src < g.pfree; {
		v := g.iw[src]
		src++
		if v >= 0 {
			continue
		}
		i := -v - 1
		g.iw[dst] = g.pe[i]
		g.pe[i] = dst
		dst++
		for c := int32(1); c < g.ln[i]; c++ {
			g.iw[dst] = g.iw[src]
			dst++
			src++
		}
	}
	g.pfree = dst
}

func (g *quotientGraph) key(i int32) uint64 { return uint64(g.deg[i])<<32 | uint64(i) }

// sift puts key into the heap, starting from the vacant slot k and moving
// towards the root or the leaves as the order requires.
func (g *quotientGraph) sift(k int32, key uint64) {
	hk, hpos := g.hk, g.hpos
	for k > 0 {
		parent := (k - 1) / 4
		if hk[parent] <= key {
			break
		}
		hk[k] = hk[parent]
		hpos[uint32(hk[k])] = k
		k = parent
	}
	for size := int32(len(hk)); 4*k+1 < size; {
		m := 4*k + 1
		for c := m + 1; c < min(m+4, size); c++ {
			if hk[c] < hk[m] {
				m = c
			}
		}
		if hk[m] >= key {
			break
		}
		hk[k] = hk[m]
		hpos[uint32(hk[k])] = k
		k = m
	}
	hk[k] = key
	hpos[uint32(key)] = k
}

// fix restores the heap after deg[i] changed.
func (g *quotientGraph) fix(i int32) { g.sift(g.hpos[i], g.key(i)) }

func (g *quotientGraph) remove(i int32) {
	k := g.hpos[i]
	last := int32(len(g.hk)) - 1
	key := g.hk[last]
	g.hk = g.hk[:last]
	if k != last {
		g.sift(k, key)
	}
}

func (g *quotientGraph) popMin() int32 {
	i := int32(uint32(g.hk[0]))
	g.remove(i)
	return i
}
