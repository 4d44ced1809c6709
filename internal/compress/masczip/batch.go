package masczip

import (
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
//	                                selector bits, then the residual
//	'0' + residual                — a miss in Markov mode: the selector is
//	                                predicted from the decision history
//
// A length-coded run ends at a miss or at the region's end, which the decoder
// can tell apart by counting, so the miss that follows one drops its '0'
// marker. Against one bit per hit that costs at most one bit more on a run of
// 9 or 11, and at most three when the run closes its region.
//
// Misses that keep their symbol are length-coded too. A miss's symbol is the
// selector it wrote, or in Markov mode the one the table predicted. After the
// missRun-th consecutive miss with one symbol — no hit between them, no other
// symbol, counted from the region's start, the last hit, the last symbol change
// or the last such count — the encoder writes
//
//	γ(n+1), then n × residual    — the n further misses that keep the symbol
//
// and those misses carry no '0' marker and no selector. A block of slots that
// all move, each best predicted by symbol 0, makes such a run, and so does a
// Markov table with a fixed point: the count costs one bit on a run of exactly
// missRun and saves the marker and selector of every miss it covers. The
// encoder looks ahead for the run's length before it writes the count
// (missRunAhead), keeping each covered miss's prediction for its residual.
//
// A miss costs its distance from the prediction, not the bits it differs in.
// The residual is z, the signed distance between the ordered integers of the
// value and of the chosen candidate (ordered, history.go), zigzagged so that
// a short step either way is a small number — 0 where the candidate is exact.
// Its length L = bits.Len64(z), 0…64, is coded with the region's own length
// code (lengthcode.go: a canonical Huffman code over the lengths of the
// region's misses, its table right before the first of them):
//
//	code(L) + the L − 1 bits of z below its leading one
//
// A value a few units in the last place from its prediction costs a few bits
// whatever bits the two differ in — the XOR of 1.0 and its predecessor has 53.
//
// The encoder decides a region before it writes it: hit runs, markers,
// selectors and counts gather into the prefix of the residual they precede
// (put), each residual closes an event (putResidual), and when the region is
// decided its lengths' code is built and the events are written behind its
// table (writeRegion), each in one WriteBits word wherever prefix + length
// code + payload fit in 64 bits. The encoder scans ahead for each run; the
// decoder counts it with one LeadingZeros64(^word) over a peeked window and
// extracts the miss behind a short run from the same window, consuming run
// and miss with one Skip (longRun + 1 + 2 + maxCodeLen bits of fixed fields
// always fit). Candidate predictions are only computed for misses.
//
// The element-at-a-time transcription of the format lives in
// reference_test.go; the property test in batch_test.go proves byte identity
// against it across the fixture matrix, and the golden-runs corpus pins
// run-heavy blobs on disk.

// longRun is the wire constant at which a hit run switches from unary to a
// length field, missRun the one at which a run of misses with one symbol does.
const (
	longRun = 8
	missRun = 3
)

// regionCoder is one row of the chunk's region table: the flat slot sequence,
// how its hits are predicted, and its Markov state and policy.
type regionCoder struct {
	rg     region
	slots  []int32 // the plan's slot list; positions [lo, hi) are this chunk's
	lo, hi int32
	hitSym uint8 // the hit predictor as a selector symbol: 0 temporal, 1 mate (L) / stamp (D)
	prev   uint8 // Markov chain state
	table  []uint8
	selLen uint  // width of the best-fit selector: 2 bits for four symbols, 1 for D's two
	same   int32 // consecutive misses with symbol prev since the last hit, symbol change or miss-run count

	// Decoder only: the region's length decode table (readLengthTable), nil
	// until its first miss, indexed by the next lutBits bits.
	lut     []uint16
	lutBits uint
}

// missed books a coded miss of symbol sym, prev's symbol before it, and
// reports whether it is the missRun-th in a row, after which a count follows.
func (r *regionCoder) missed(prev, sym uint8) bool {
	if r.same > 0 && sym == prev {
		r.same++
	} else {
		r.same = 1
	}
	if r.same < missRun {
		return false
	}
	r.same = 0
	return true
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

// hit reports whether the element at position k is its hit predictor's.
func (cc *chunkCoder) hit(r *regionCoder, k int32) bool {
	s := r.slots[k]
	v := math.Float64bits(cc.cur[s])
	switch {
	case r.hitSym == 0:
		return v == math.Float64bits(cc.ref[s])
	case r.rg == regionL:
		return v == math.Float64bits(cc.mate(s))
	default:
		return v == math.Float64bits(cc.stamp[k])
	}
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
	r.prev, r.same = r.hitSym, 0
}

// event is a piece of a region the encoder has decided and not yet written:
// the bits since the previous residual — hit runs, a marker, a selector, a
// miss-run count — MSB-first, then a residual of length l, or none (l =
// noResidual) where the prefix is the region's tail or a field too long to
// share a word with a length code.
type event struct {
	pre  uint64
	z    uint64
	preN uint8
	l    uint8
}

// put appends the n-bit field v to the prefix being gathered. A prefix stays
// within maxPrefix bits, so that its residual's length code fits the same
// word: a field that would pass that closes the prefix first, and one that
// passes it alone is an event of its own.
func (cc *chunkCoder) put(v uint64, n uint) {
	if uint(cc.preN)+n > maxPrefix {
		cc.closePrefix()
		if n > maxPrefix {
			cc.events = append(cc.events, event{pre: v, preN: uint8(n), l: noResidual})
			return
		}
	}
	cc.pre = cc.pre<<n | v
	cc.preN += uint8(n)
}

// closePrefix makes the gathered prefix an event of its own, if there is one.
func (cc *chunkCoder) closePrefix() {
	if cc.preN > 0 {
		cc.events = append(cc.events, event{pre: cc.pre, preN: cc.preN, l: noResidual})
		cc.pre, cc.preN = 0, 0
	}
}

// putResidual closes the gathered prefix with the residual z and counts its
// length for the region's code: the bits below its leading one are payload
// now, its length code when the code is known.
func (cc *chunkCoder) putResidual(z uint64) {
	l := bits.Len64(z)
	cc.events = append(cc.events, event{pre: cc.pre, z: z, preN: cc.preN, l: uint8(l)})
	cc.pre, cc.preN = 0, 0
	cc.lengths.counts[l]++
	cc.stats.LZHist[(64-l)>>3]++
	cc.stats.PayloadBits += int64(max(l, 1) - 1)
}

// writeRegion builds the decided region's length code and writes its events
// to w, the table before the first length code: each event in one WriteBits
// word where prefix, length code and payload fit, else with one more for the
// payload (a prefix is at most maxPrefix bits, so its code always fits
// beside it).
func (cc *chunkCoder) writeRegion(w *bitstream.Writer) {
	cc.closePrefix()
	lc := &cc.lengths
	lc.build()
	table := true
	for _, e := range cc.events {
		if e.l == noResidual {
			w.WriteBits(e.pre, uint(e.preN))
			continue
		}
		if table {
			w.WriteBits(e.pre, uint(e.preN))
			e.pre, e.preN, table = 0, 0, false
			cc.stats.PayloadBits += int64(lc.write(w))
		}
		code, g := uint64(lc.codes[e.l]), uint(lc.lens[e.l])
		pn := uint(max(e.l, 1) - 1) // the bits below the leading one
		payload := e.z & (1<<pn - 1)
		if n := uint(e.preN) + g + pn; n <= 64 {
			w.WriteBits(e.pre<<(g+pn)|code<<pn|payload, n)
		} else {
			w.WriteBits(e.pre<<g|code, uint(e.preN)+g)
			w.WriteBits(payload, pn)
		}
		cc.stats.PayloadBits += int64(g)
	}
	cc.events, *lc = cc.events[:0], lengthCode{}
}

// encodeRun gathers a run of n hits and tallies it: its stream bits are
// payload, its elements land in the zero-residual histogram bucket.
func (cc *chunkCoder) encodeRun(r *regionCoder, n int32) {
	if n < longRun {
		cc.put(1<<n-1, uint(n))
		cc.stats.PayloadBits += int64(n)
	} else {
		cc.put(1<<longRun-1, longRun)
		cc.stats.PayloadBits += longRun
		cc.putCount(uint64(n - longRun + 1))
	}
	r.prev, r.same = r.hitSym, 0
	cc.stats.Elements += int64(n)
	cc.stats.LZHist[8] += int64(n)
	cc.stats.HitRuns[r.rg]++
}

// decodeCount reads a γ field, γ(n − base + 1), and returns n, the length of
// the run it counts — a hit run after longRun '1' bits, or the misses a miss
// run covers — which may not pass the rem positions the region has left.
func decodeCount(r *bitstream.Reader, what string, base, rem int32) (int32, error) {
	v, ok := readGamma(r)
	if !ok {
		return 0, fmt.Errorf("%s γ code has 32 or more leading zeros", what)
	}
	n := v + uint64(base) - 1
	if n > uint64(rem) {
		return 0, fmt.Errorf("%s of %d exceeds the %d slots left", what, n, rem)
	}
	return int32(n), nil
}

// putCount gathers the γ field γ(v) of a run's length and books it.
func (cc *chunkCoder) putCount(v uint64) {
	g := uint(2*bits.Len64(v) - 1) // the value's bits under one zero fewer
	cc.put(v, g)
	cc.stats.RunLengthBits += int64(g)
	cc.stats.PayloadBits += int64(g)
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

// encodeMiss gathers one element its hit predictor did not reproduce: the '0'
// marker (none when bare, after a length-coded run), the selector (best-fit
// matrices only) and the residual.
func (cc *chunkCoder) encodeMiss(val float64,
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
		cc.stats.SelectorBits += int64(r.selLen)
	} else {
		sym = r.table[r.prev]
	}
	cc.selected(r, val, cands[sym], sym)
	cc.put(pre, preN)
	cc.putResidual(residual(val, cands[sym]))
	return sym
}

// selected books the selection of symbol sym, prediction pred, for a miss of
// value val: the Markov counts (calibration) or the table's exactness probe,
// the model families, and the chain state.
func (cc *chunkCoder) selected(r *regionCoder, val, pred float64, sym uint8) {
	if cc.calib {
		if cc.counts != nil {
			cc.counts.add(r.rg, r.prev, sym, 1)
		}
	} else if cc.statsOn {
		cc.stats.MarkovPredicted++
		if math.Float64bits(val) == math.Float64bits(pred) {
			cc.stats.MarkovExact++
		}
	}
	cc.note(sym, r.rg, 1)
	r.prev = sym
}

// covered books the n misses a miss run of symbol sym covers as selected
// books one each, though no selector is written for them; the caller probes
// their exactness.
func (cc *chunkCoder) covered(r *regionCoder, sym uint8, n int32) {
	if cc.calib {
		if cc.counts != nil {
			cc.counts.add(r.rg, sym, sym, uint32(n))
		}
	} else {
		cc.stats.MarkovPredicted += int64(n)
	}
	cc.note(sym, r.rg, int64(n))
}

// missRunAhead finds the misses after position k that keep symbol sym — no
// hit, no other symbol — and puts their predictions in cc.ahead, computing each
// candidate set once: where the run stops at a miss of another symbol, that
// miss's candidates wait in cc.next for the main loop. It returns how many.
func (cc *chunkCoder) missRunAhead(r *regionCoder, k int32, sym uint8) int32 {
	n := int32(0)
	for j := k + 1; j < r.hi && !cc.hit(r, j); j++ {
		if !cc.calib { // sym is a fixed point of the table: every further miss keeps it
			cc.ahead[n] = cc.cand(r, j, sym)
		} else {
			nx := &cc.next
			nx.n = cc.cands(r, j, &nx.cands)
			if bestSym(cc.cur[r.slots[j]], &nx.cands, nx.n) != sym {
				nx.at = j + 1
				break
			}
			cc.ahead[n] = nx.cands[sym]
		}
		n++
	}
	return n
}

// decodeMissAt decodes the miss at position k of region rc, whose selector
// starts at bit offset off of the peeked window w: past the short run of '1'
// hit bits the caller identified in the same window but has not consumed and
// the '0' marker, or 0 for the bare miss after a length-coded run. The decoder
// knows the symbol before it needs a prediction, so it computes that one:
// symbol 0 is the blob's family in every region, and where a history makes it
// the usual choice the other three are never formed.
func (cc *chunkCoder) decodeMissAt(r *bitstream.Reader, off uint, w uint64, rc *regionCoder, k int32) (float64, error) {
	var sym uint8
	if cc.calib {
		sym = uint8((w << off) >> (64 - rc.selLen))
		off += rc.selLen
	} else {
		sym = rc.table[rc.prev]
	}
	rc.prev = sym
	if rc.lut == nil { // the region's first miss: its length table comes first
		r.Skip(off)
		if err := readLengthTable(r, rc, cc.lutBuf); err != nil {
			return 0, err
		}
		w, _ = r.Peek64()
		off = 0
	}
	return cc.residualAt(r, off, w, rc, cc.cand(rc, k, sym)), nil
}

// residualAt decodes the residual that starts at bit offset off of the
// peeked window w against pred. The length code and a payload that fits are
// extracted from the word, and everything from the window's start to the
// residual's end is consumed with a single Skip. off ≤ longRun + 1 + 2, so
// every fixed field lies inside the window; only a long payload needs the
// ReadBits spill. The region's code is complete, so every bit string is some
// length's code; zero padding past the end of the stream decodes as the
// zero-extended fields sequential reads would see, with ErrOverrun surfacing
// from Skip/ReadBits.
func (cc *chunkCoder) residualAt(r *bitstream.Reader, off uint, w uint64, rc *regionCoder, pred float64) float64 {
	wres := w << off // residual view, length code at the top
	e := rc.lut[wres>>(64-rc.lutBits)]
	g, l := uint(e>>8), uint(e&0xff)
	if l == 0 {
		r.Skip(off + g)
		return pred
	}
	pn := l - 1
	var z uint64
	if n := off + g + pn; n <= 64 {
		z = (wres << g) >> (64 - pn) // pn = 0 shifts everything out
		r.Skip(n)
	} else {
		r.Skip(off + g)
		z = r.ReadBits(pn)
	}
	return unresidual(pred, z|1<<pn)
}

// decodeMissRun reads the count after a missRun-th miss of one symbol and
// decodes the misses it covers, residuals alone, from position k on.
func (cc *chunkCoder) decodeMissRun(r *bitstream.Reader, rc *regionCoder, k int32) (int32, error) {
	n, err := decodeCount(r, "miss run", 0, rc.hi-k)
	if err != nil {
		return 0, err
	}
	sym := rc.prev
	for i := k; i < k+n; i++ {
		w, _ := r.Peek64()
		cc.cur[rc.slots[i]] = cc.residualAt(r, 0, w, rc, cc.cand(rc, i, sym))
	}
	return n, nil
}

// encodeRegions decides the chunk's three regions and writes each to w.
func (cc *chunkCoder) encodeRegions(w *bitstream.Writer) {
	var cands [4]float64
	var mark regionMark // chunkEncoder reset the writer; Compress zeroed the chunk's statistics
	table := cc.regions()
	for i := range table {
		r := &table[i]
		bare := false
		for k := r.lo; k < r.hi; k++ {
			if run := cc.hitRun(r, k); run > 0 {
				cc.encodeRun(r, run)
				bare = run >= longRun
				if k += run; k >= r.hi {
					break
				}
			}
			c, n := &cands, 0
			if cc.next.at == k+1 { // the miss that ended a miss run: its candidates are known
				c, n, cc.next.at = &cc.next.cands, cc.next.n, 0
			} else {
				n = cc.cands(r, k, c)
			}
			prev := r.prev
			sym := cc.encodeMiss(cc.cur[r.slots[k]], c, n, r, bare)
			bare = false
			if !r.missed(prev, sym) {
				continue
			}
			run := cc.missRunAhead(r, k, sym)
			cc.putCount(uint64(run) + 1)
			probe := cc.statsOn && !cc.calib
			for j, pred := range cc.ahead[:run] {
				val := cc.cur[r.slots[k+1+int32(j)]]
				cc.putResidual(residual(val, pred))
				if probe && math.Float64bits(val) == math.Float64bits(pred) {
					cc.stats.MarkovExact++
				}
			}
			cc.covered(r, sym, run)
			k += run
		}
		cc.writeRegion(w)
		cc.closeRegion(r, w, &mark)
	}
}

// decodeRegions fills cc.cur for the chunk's rows from r. Each iteration peeks
// one 64-bit window and counts the run of '1' hits with a LeadingZeros64: a
// short run and the miss behind it are decoded with a single Skip, a run that
// closes the region or carries a length field is consumed on its own, and so
// is a miss run's count and each residual it covers. A length field that
// cannot be right is an error here; a stream that ends early is decoded from
// zero padding up to the first overrun, which stays in r, or up to a residual
// length code the padding makes impossible.
func (cc *chunkCoder) decodeRegions(r *bitstream.Reader) error {
	table := cc.regions()
	for i := range table {
		rc := &table[i]
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
						if ones, err = decodeCount(r, "hit run", longRun, rem); err != nil {
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
			prev := rc.prev
			v, err := cc.decodeMissAt(r, off, w, rc, k)
			if err != nil {
				return fmt.Errorf("region %s: %w", rc.rg, err)
			}
			cc.cur[rc.slots[k]] = v
			bare = false
			k++
			if rc.missed(prev, rc.prev) {
				n, err := cc.decodeMissRun(r, rc, k)
				if err != nil {
					return fmt.Errorf("region %s: %w", rc.rg, err)
				}
				k += n
			}
		}
	}
	return nil
}
