package masczip

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"masc/internal/compress/bitstream"
)

// Batched region coders.
//
// A chunk is three regions — U, L, D — and a region is a flat sequence of
// slots (regionCoder). Every element is a hit or a miss: a hit is "this
// region's hit predictor reproduces the value bit for bit", where the hit
// predictor is the temporal value ref[k] in U, ref[k] or the already decoded
// symmetric mate in L, ref[k] or the difference stamp in D, as the blob's
// flags say (masczip.go; the paper's 1-bit scenario is the temporal case).
// What the predictor already knows costs next to nothing: hits are coded in
// maximal runs.
//
//	n × '1', n < longRun          — a run of n hits
//	longRun × '1' + γ(n−longRun+1) — a run of n ≥ longRun hits (Elias-γ)
//	'0' + selector + residual     — a miss in best-fit mode: 1 (D) or 2 (U/L)
//	                                selector bits, then the window-coded XOR
//	                                residual
//	'0' + residual                — a miss in Markov mode: the selector is
//	                                predicted from the decision history
//
// A length-coded run ends at a miss or at the region's end, which the decoder
// can tell apart by counting, so the miss that follows one drops its '0'
// marker. Against one bit per hit that costs at most one bit more on a run of
// 9 or 11, and at most three when the run closes its region.
//
// The encoder scans ahead for each run and writes it in one or two calls, the
// decoder counts it with one LeadingZeros64(^word) over a peeked window. Misses
// are fused too: the encoder packs marker + selector + residual flags + payload
// into a single WriteBits word, and the decoder extracts all of them
// branchlessly from the same peeked window that delimited a preceding short
// run, consuming run and miss with one Skip (longRun + 1 + 2 + 11 bits of fixed
// fields always fit). Candidate predictions are only computed for misses.
//
// The element-at-a-time transcription of the format lives in
// reference_test.go; the property test in batch_test.go proves byte identity
// against it across the fixture matrix, and the golden-runs corpus pins
// run-heavy blobs on disk.

// longRun is the wire constant at which a hit run switches from unary to a
// length field.
const longRun = 8

// regionCoder is one row of the chunk's region table: the flat slot sequence,
// how its hits are predicted, and its Markov state and policy.
type regionCoder struct {
	rg     region
	slots  []int32 // the plan's slot list; positions [lo, hi) are this chunk's
	lo, hi int32
	hitSym uint8 // the hit predictor as a selector symbol: 0 temporal, 1 mate (L) / stamp (D)
	prev   uint8 // Markov chain state
	table  []uint8
	selLen uint // width of the best-fit selector: 2 bits for four symbols, 1 for D's two
}

func (cc *chunkCoder) regions() [3]regionCoder {
	pl := cc.plan
	lo, hi := cc.rowLo, cc.rowHi
	mate, stamp := uint8(boolInt(cc.mateHit)), uint8(boolInt(cc.stampHit))
	return [3]regionCoder{
		{rg: regionU, slots: pl.uSlots, lo: pl.uRowPtr[lo], hi: pl.uRowPtr[hi], table: cc.tables.u[:], selLen: 2},
		{rg: regionL, slots: pl.lSlots, lo: pl.lRowPtr[lo], hi: pl.lRowPtr[hi], table: cc.tables.l[:], selLen: 2, hitSym: mate},
		{rg: regionD, slots: pl.dSlots, lo: pl.dRowPtr[lo], hi: pl.dRowPtr[hi], table: cc.tables.d[:], selLen: 1, hitSym: stamp},
	}
}

// cands computes the candidate predictions for position k of region r.
func (cc *chunkCoder) cands(r *regionCoder, k int32, out *[4]float64) int {
	switch r.rg {
	case regionU:
		return cc.candsU(r.slots[k], out)
	case regionL:
		return cc.candsL(k, out)
	default:
		return cc.candsD(k, out)
	}
}

// cand is candidate sym alone for position k of region r: the one prediction
// the decoder needs, without symbol 0 where sym has its own.
func (cc *chunkCoder) cand(r *regionCoder, k int32, sym uint8) float64 {
	if sym != 0 {
		var out [4]float64
		var fallback uint8
		switch r.rg {
		case regionU:
			fallback = cc.spatialU(r.slots[k], &out)
		case regionL:
			fallback = cc.spatialL(k, &out)
		default:
			fallback = cc.spatialD(k, &out)
		}
		if fallback>>sym&1 == 0 {
			return out[sym]
		}
	}
	if r.rg == regionD {
		return cc.firstD(k)
	}
	return cc.first(r.slots[k])
}

// hitRun is the length of the run of hits that starts at position k.
func (cc *chunkCoder) hitRun(r *regionCoder, k int32) int32 {
	cur, ref := cc.cur, cc.ref
	n := k
	switch {
	case r.hitSym == 0:
		for ; n < r.hi; n++ {
			if s := r.slots[n]; math.Float64bits(cur[s]) != math.Float64bits(ref[s]) {
				break
			}
		}
	case r.rg == regionL:
		for ; n < r.hi; n++ {
			if s := r.slots[n]; math.Float64bits(cur[s]) != math.Float64bits(cc.mate(s)) {
				break
			}
		}
	default:
		for ; n < r.hi; n++ {
			if math.Float64bits(cur[r.slots[n]]) != math.Float64bits(cc.stamp[n]) {
				break
			}
		}
	}
	return n - k
}

// fillHits decodes the run of n hits that starts at position k.
func (cc *chunkCoder) fillHits(r *regionCoder, k, n int32) {
	cur, ref := cc.cur, cc.ref
	switch {
	case r.hitSym == 0:
		for _, s := range r.slots[k : k+n] {
			cur[s] = ref[s]
		}
	case r.rg == regionL:
		for _, s := range r.slots[k : k+n] {
			cur[s] = cc.mate(s)
		}
	default:
		for i := k; i < k+n; i++ {
			cur[r.slots[i]] = cc.stampD(i)
		}
	}
	r.prev = r.hitSym
}

// encodeRun writes a run of n hits and tallies it: its stream bits are
// payload, its elements land in the zero-residual histogram bucket.
func (cc *chunkCoder) encodeRun(w *bitstream.Writer, r *regionCoder, n int32) {
	spent := int64(n)
	if n < longRun {
		w.WriteOnes(int(n))
	} else {
		v := uint64(n - longRun + 1)
		g := uint(2*bits.Len64(v) - 1) // the value's bits under one zero fewer
		w.WriteOnes(longRun)
		w.WriteBits(v, g)
		spent = longRun + int64(g)
		cc.stats.RunLengthBits += int64(g)
	}
	r.prev = r.hitSym
	cc.stats.Elements += int64(n)
	cc.stats.PayloadBits += spent
	cc.stats.LZHist[8] += int64(n)
	cc.stats.HitRuns[r.rg]++
}

// decodeRunLength reads the γ field that follows longRun '1' bits and returns
// the run's length, which may not pass the rem positions the region has left.
func decodeRunLength(r *bitstream.Reader, rem int32) (int32, error) {
	w, _ := r.Peek64()
	z := uint(bits.LeadingZeros64(w))
	if z >= 32 {
		return 0, errors.New("run-length γ code has 32 or more leading zeros")
	}
	n := w>>(63-2*z) + longRun - 1
	r.Skip(2*z + 1)
	if n > uint64(rem) {
		return 0, fmt.Errorf("hit run of %d exceeds the %d slots left", n, rem)
	}
	return int32(n), nil
}

// regionMark is the writer position and miss count at a region's start.
type regionMark struct {
	bits   int
	misses int64
}

// closeRegion books what region r wrote since m — stream bits from the
// writer's position, misses from the running selector-element count, hits as
// the rest — and moves m to the next region's start. Three calls per chunk,
// nothing per element.
func (cc *chunkCoder) closeRegion(r *regionCoder, w *bitstream.Writer, m *regionMark) {
	if !cc.statsOn {
		return
	}
	now := regionMark{w.BitLen(), cc.stats.SelectorElements}
	cc.stats.RegionBits[r.rg] += int64(now.bits - m.bits)
	cc.stats.RegionMisses[r.rg] += now.misses - m.misses
	cc.stats.RegionHits[r.rg] += int64(r.hi-r.lo) - (now.misses - m.misses)
	*m = now
}

// encodeMiss writes one element its hit predictor did not reproduce: the '0'
// marker (none when bare, after a length-coded run), the selector (best-fit
// matrices only) and the window-coded XOR residual, packed into a single
// WriteBits word whenever marker + selector + flags + descriptor + payload fit
// in 64 bits (payloads long enough to spill are written with one extra call).
func (cc *chunkCoder) encodeMiss(w *bitstream.Writer, val float64,
	cands *[4]float64, nSyms int, r *regionCoder, bare bool) uint8 {

	var sym uint8
	pre := uint64(0) // '0' marker plus selector bits, MSB-first
	preN := uint(1)
	if bare {
		preN = 0
	}
	cc.stats.PayloadBits += int64(preN)
	if cc.calib {
		sym = bestSym(val, cands, nSyms)
		pre = uint64(sym) // a marker bit above it stays 0
		preN += r.selLen
		if cc.counts != nil {
			cc.counts.add(r.rg, r.prev, sym)
		}
		cc.stats.SelectorBits += int64(r.selLen)
	} else {
		sym = r.table[r.prev]
		if cc.statsOn {
			cc.stats.MarkovPredicted++
			if math.Float64bits(val) == math.Float64bits(cands[sym]) {
				cc.stats.MarkovExact++
			}
		}
	}
	r.prev = sym

	x := math.Float64bits(val) ^ math.Float64bits(cands[sym])
	if x == 0 {
		w.WriteBits(pre<<1|1, preN+1) // residual '1': prediction is exact
		cc.stats.LZHist[8]++
		cc.stats.PayloadBits++
		return sym
	}
	lz := uint(bits.LeadingZeros64(x))
	lz8 := lz &^ 7 // byte-class: x != 0 bounds lz at 63, so already ≤ 56
	tz := uint(bits.TrailingZeros64(x))
	length := 64 - lz8 - tz
	prevShift := 64 - cc.win.lz8 - cc.win.len
	// Share the previous window only when the residual fits it AND the
	// shared form is no longer than re-describing a tight window (1+len
	// shared vs 10+len fresh): a stale wide window wastes bits.
	fits := !cc.opt.DisableSharedWindow && cc.win.len > 0 &&
		lz >= cc.win.lz8 && tz >= prevShift && cc.win.len <= length+9
	if fits {
		wl := cc.win.len
		payload := x >> prevShift // < 2^wl: lz ≥ win.lz8 bounds the top bit
		if n := preN + 2 + wl; n <= 64 {
			w.WriteBits(pre<<(2+wl)|1<<wl|payload, n)
		} else {
			w.WriteBits(pre<<2|1, preN+2)
			w.WriteBits(payload, wl)
		}
		cc.stats.LZHist[lz8>>3]++
		cc.stats.PayloadBits += int64(2 + wl)
		return sym
	}
	desc := uint64(lz8>>3)<<6 | uint64(length-1) // 9 bits under the two '0' flags
	payload := x >> tz                           // < 2^length
	if n := preN + 11 + length; n <= 64 {
		w.WriteBits(pre<<(11+length)|desc<<length|payload, n)
	} else {
		w.WriteBits(pre<<11|desc, preN+11)
		w.WriteBits(payload, length)
	}
	cc.win.lz8 = lz8
	cc.win.len = length
	cc.stats.LZHist[lz8>>3]++
	cc.stats.PayloadBits += int64(11 + length)
	return sym
}

// decodeMissAt decodes the miss at position k of region rc, whose selector
// starts at bit offset off of the peeked window w: past the short run of '1'
// hit bits the caller identified in the same window but has not consumed and
// the '0' marker, or 0 for the bare miss after a length-coded run. Selector and
// residual fields are extracted branchlessly from the word; run, marker,
// selector and residual are consumed with a single Skip. off ≤ longRun, so every
// fixed field lies inside the window; only a long payload needs the ReadBits
// spill. Zero padding past the end of the stream decodes as the zero-extended
// fields sequential reads would see, with ErrOverrun surfacing from
// Skip/ReadBits. The decoder knows the symbol before it needs a prediction, so
// it computes that one: symbol 0 is the blob's family in every region, and
// where a history makes it the usual choice the other three are never formed.
func (cc *chunkCoder) decodeMissAt(r *bitstream.Reader, off uint, w uint64, rc *regionCoder, k int32) float64 {
	var sym uint8
	if cc.calib {
		sym = uint8((w << off) >> (64 - rc.selLen))
		off += rc.selLen
	} else {
		sym = rc.table[rc.prev]
	}
	rc.prev = sym
	pred := cc.cand(rc, k, sym)

	wres := w << off // residual view, flags at the top
	var x uint64
	if wres&(1<<63) != 0 { // '1': zero residual
		r.Skip(off + 1)
		return pred
	}
	if wres&(1<<62) != 0 { // '0'+'1': payload reuses the previous window
		wl := cc.win.len
		prevShift := 64 - cc.win.lz8 - wl
		if n := off + 2 + wl; n <= 64 {
			x = ((wres << 2) >> (64 - wl)) << prevShift
			r.Skip(n)
		} else {
			r.Skip(off + 2)
			x = r.ReadBits(wl) << prevShift
		}
	} else { // '0'+'0': fresh 3-bit class + 6-bit length, then the payload
		lz8 := uint(wres>>59) & 7 << 3
		length := uint(wres>>53)&0x3f + 1
		if n := off + 11 + length; n <= 64 {
			x = ((wres << 11) >> (64 - length)) << (64 - lz8 - length)
			r.Skip(n)
		} else {
			r.Skip(off + 11)
			x = r.ReadBits(length) << (64 - lz8 - length)
		}
		cc.win.lz8 = lz8
		cc.win.len = length
	}
	return math.Float64frombits(math.Float64bits(pred) ^ x)
}

// encodeRegions writes the chunk's three regions to w.
func (cc *chunkCoder) encodeRegions(w *bitstream.Writer) {
	var cands [4]float64
	var mark regionMark // chunkEncoder reset the writer; Compress zeroed the chunk's statistics
	table := cc.regions()
	for i := range table {
		r := &table[i]
		cc.win = window{}
		bare := false
		for k := r.lo; k < r.hi; k++ {
			if run := cc.hitRun(r, k); run > 0 {
				cc.encodeRun(w, r, run)
				bare = run >= longRun
				if k += run; k >= r.hi {
					break
				}
			}
			n := cc.cands(r, k, &cands)
			sym := cc.encodeMiss(w, cc.cur[r.slots[k]], &cands, n, r, bare)
			cc.note(sym, r.rg)
			bare = false
		}
		cc.closeRegion(r, w, &mark)
	}
}

// decodeRegions fills cc.cur for the chunk's rows from r. Each iteration peeks
// one 64-bit window and counts the run of '1' hits with a LeadingZeros64: a
// short run and the miss behind it are decoded with a single Skip, a run that
// closes the region or carries a length field is consumed on its own. A length
// field that cannot be right is an error here; a stream that ends early is
// decoded from zero padding up to the first overrun, which stays in r.
func (cc *chunkCoder) decodeRegions(r *bitstream.Reader) error {
	table := cc.regions()
	for i := range table {
		rc := &table[i]
		cc.win = window{}
		bare := false
		for k := rc.lo; k < rc.hi && r.Err() == nil; {
			w, valid := r.Peek64()
			off := uint(0)
			if !bare {
				ones := int32(bits.LeadingZeros64(^w))
				if uint(ones) > valid {
					ones = int32(valid)
				}
				rem := rc.hi - k
				if lim := min(rem, longRun); ones >= lim {
					// The run closes the region or is length-coded.
					r.Skip(uint(lim))
					if ones = lim; lim == longRun {
						var err error
						if ones, err = decodeRunLength(r, rem); err != nil {
							return fmt.Errorf("region %s: %w", rc.rg, err)
						}
						bare = true
					}
					cc.fillHits(rc, k, ones)
					k += ones
					continue
				}
				if ones > 0 {
					cc.fillHits(rc, k, ones)
					k += ones
				}
				off = uint(ones) + 1
			}
			cc.cur[rc.slots[k]] = cc.decodeMissAt(r, off, w, rc, k)
			bare = false
			k++
		}
	}
	return nil
}
