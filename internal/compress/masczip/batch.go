package masczip

import (
	"math"
	"math/bits"

	"masc/internal/compress/bitstream"
)

// Batched region coders.
//
// Wire format per element:
//
//	'1'                         — the temporal prediction is bit-exact
//	                              (the dominant case in idle circuit
//	                              regions; the paper's 1-bit scenario)
//	'0' + selector + residual   — best-fit mode: 1 (D) or 2 (U/L) selector
//	                              bits, then the window-coded XOR residual
//	'0' + residual              — Markov mode: the selector is predicted
//	                              from the decision history, no bits
//
// The dominant symbol is the 1-bit temporal-exact hit, so instead of one
// WriteBit/ReadBit plus a candidate computation per element the encoder
// scans ahead for the run of bit-exact hits and emits it as whole words of
// '1' bits, and the decoder counts a run with one LeadingZeros64(^word) over
// a peeked window and materializes it as bulk stores from the reference
// slice. Misses are fused too: the encoder packs marker + selector + residual
// flags + payload into a single WriteBits word, and the decoder extracts all
// of them branchlessly from the same peeked window that delimited the
// preceding run, consuming run and miss with one Skip. Candidate predictions
// are only computed for misses, which also skips region D's off-diagonal row
// sum on every hit.
//
// The element-at-a-time transcription of the format lives in
// reference_test.go; the property test in batch_test.go proves byte identity
// against it across the fixture matrix, and the golden-runs corpus pins
// run-heavy blobs on disk.

// maxFusedRun bounds the run length the decoder handles inside one peeked
// window: after the run there must still be room for the miss marker, the
// selector (≤2 bits) and the 11-bit residual descriptor, so every fixed
// field is extracted from real stream bits (50 + 1 + 2 + 11 = 64). Longer
// runs take the generic RunOfOnes path and re-peek for the miss.
const maxFusedRun = 50

// noteHits tallies a run of temporal-exact hits: each costs one '1' payload
// bit and lands in the zero-residual histogram bucket.
func (cc *chunkCoder) noteHits(n int64) {
	cc.stats.Elements += n
	cc.stats.PayloadBits += n
	cc.stats.LZHist[8] += n
}

// regionMark is the writer position and miss count at a region's start.
type regionMark struct {
	bits   int
	misses int64
}

// closeRegion books what region rg wrote since m — stream bits from the
// writer's position, misses from the running selector-element count — and
// moves m to the next region's start. Three calls per chunk, nothing per
// element.
func (cc *chunkCoder) closeRegion(rg region, w *bitstream.Writer, m *regionMark) {
	if !cc.statsOn {
		return
	}
	now := regionMark{w.BitLen(), cc.stats.SelectorElements}
	cc.stats.RegionBits[rg] += int64(now.bits - m.bits)
	cc.stats.RegionMisses[rg] += now.misses - m.misses
	*m = now
}

// encodeMiss writes one element whose temporal prediction was not bit-exact:
// the '0' marker, the selector (best-fit matrices only) and the window-coded
// XOR residual, packed into a single WriteBits word whenever marker +
// selector + flags + descriptor + payload fit in 64 bits (payloads long
// enough to spill are written with one extra call). Bit sequence and
// statistics accounting are identical to the reference coder's.
func (cc *chunkCoder) encodeMiss(w *bitstream.Writer, val float64,
	cands *[4]float64, nSyms int, prev *uint8,
	table []uint8, counts func(prev, sym uint8)) uint8 {

	var sym uint8
	pre := uint64(0) // '0' marker plus selector bits, MSB-first
	preN := uint(1)
	if cc.calib {
		sym = bestSym(val, cands, nSyms)
		bitsN := uint(2)
		if nSyms == 2 {
			bitsN = 1
		}
		pre = uint64(sym) // the marker bit above it stays 0
		preN = 1 + bitsN
		if counts != nil {
			counts(*prev, sym)
		}
		cc.stats.SelectorBits += int64(bitsN)
	} else {
		sym = table[*prev]
		if cc.statsOn {
			cc.stats.MarkovPredicted++
			if math.Float64bits(val) == math.Float64bits(cands[sym]) {
				cc.stats.MarkovExact++
			}
		}
	}
	*prev = sym

	x := math.Float64bits(val) ^ math.Float64bits(cands[sym])
	if x == 0 {
		w.WriteBits(pre<<1|1, preN+1) // residual '1': prediction is exact
		cc.stats.LZHist[8]++
		cc.stats.PayloadBits += 2 // marker + flag
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
		cc.stats.PayloadBits += int64(3 + wl)
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
	cc.stats.PayloadBits += int64(12 + length)
	return sym
}

// decodeMissAt decodes one miss whose '0' marker sits at bit offset pre of
// the peeked window (w, valid) — pre counts the run of '1' hit bits the
// caller identified in the same window but has not consumed. Selector and
// residual fields are extracted branchlessly from the word; run, marker,
// selector and residual are consumed with a single Skip. The caller
// guarantees pre ≤ maxFusedRun, so every fixed field lies inside the
// window; only a long payload needs the ReadBits spill. Zero padding past
// the end of the stream reproduces exactly the zero-extended fields the
// sequential reference reads would decode, with ErrOverrun surfacing from
// Skip/ReadBits as before.
func (cc *chunkCoder) decodeMissAt(r *bitstream.Reader, pre uint, w uint64,
	cands *[4]float64, nSyms int, prev *uint8, table []uint8) float64 {

	off := pre + 1 // past the run and the '0' marker
	var sym uint8
	if cc.calib {
		bitsN := uint(2)
		if nSyms == 2 {
			bitsN = 1
		}
		sym = uint8((w << off) >> (64 - bitsN))
		off += bitsN
	} else {
		sym = table[*prev]
	}
	*prev = sym
	pred := cands[sym]

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

// encodeRegions writes the chunk's three regions (U, L, D) to w with
// hit-run batching.
func (cc *chunkCoder) encodeRegions(w *bitstream.Writer) {
	pl := cc.plan
	cur, ref := cc.cur, cc.ref
	var cands [4]float64

	countU := func(p, s uint8) { cc.counts.u[p][s]++ }
	countL := func(p, s uint8) { cc.counts.l[p][s]++ }
	countD := func(p, s uint8) { cc.counts.d[p][s]++ }
	if cc.counts == nil {
		countU, countL, countD = nil, nil, nil
	}

	var mark regionMark // chunkEncoder reset the writer; Compress zeroed the chunk's statistics

	// Region U.
	cc.win = window{}
	lo, hi := pl.uRowPtr[cc.rowLo], pl.uRowPtr[cc.rowHi]
	for k := lo; k < hi; {
		run := int32(0)
		for k+run < hi {
			slot := pl.uSlots[k+run]
			if math.Float64bits(cur[slot]) != math.Float64bits(ref[slot]) {
				break
			}
			run++
		}
		if run > 0 {
			w.WriteOnes(int(run))
			cc.noteHits(int64(run))
			cc.prevU = 0
			k += run
			if k >= hi {
				break
			}
		}
		slot := pl.uSlots[k]
		n := cc.candsU(slot, &cands)
		sym := cc.encodeMiss(w, cur[slot], &cands, n, &cc.prevU, cc.tables.u[:], countU)
		cc.note(sym, regionU)
		k++
	}
	cc.closeRegion(regionU, w, &mark)

	// Region L: per-row last-value chaining. A hit's decoded value is the
	// reference value, so after a run the last-value candidate is simply
	// ref at the final slot of the run.
	cc.win = window{}
	for row := cc.rowLo; row < cc.rowHi; row++ {
		lastVal := 0.0
		haveLast := false
		rlo, rhi := pl.lRowPtr[row], pl.lRowPtr[row+1]
		for k := rlo; k < rhi; {
			run := int32(0)
			for k+run < rhi {
				slot := pl.lSlots[k+run]
				if math.Float64bits(cur[slot]) != math.Float64bits(ref[slot]) {
					break
				}
				run++
			}
			if run > 0 {
				w.WriteOnes(int(run))
				cc.noteHits(int64(run))
				cc.prevL = 0
				lastVal, haveLast = ref[pl.lSlots[k+run-1]], true
				k += run
				if k >= rhi {
					break
				}
			}
			slot := pl.lSlots[k]
			n := cc.candsL(slot, lastVal, haveLast, &cands)
			val := cur[slot]
			sym := cc.encodeMiss(w, val, &cands, n, &cc.prevL, cc.tables.l[:], countL)
			cc.note(sym, regionL)
			lastVal, haveLast = val, true
			k++
		}
	}
	cc.closeRegion(regionL, w, &mark)

	// Region D over the packed diagonal slots: skipping candsD on hits also
	// skips the off-diagonal row sum, the most expensive candidate.
	cc.win = window{}
	dlo, dhi := pl.dRowPtr[cc.rowLo], pl.dRowPtr[cc.rowHi]
	for k := dlo; k < dhi; {
		run := int32(0)
		for k+run < dhi {
			slot := pl.dSlots[k+run]
			if math.Float64bits(cur[slot]) != math.Float64bits(ref[slot]) {
				break
			}
			run++
		}
		if run > 0 {
			w.WriteOnes(int(run))
			cc.noteHits(int64(run))
			cc.prevD = 0
			k += run
			if k >= dhi {
				break
			}
		}
		slot := pl.dSlots[k]
		n := cc.candsD(pl.dRows[k], slot, &cands)
		sym := cc.encodeMiss(w, cur[slot], &cands, n, &cc.prevD, cc.tables.d[:], countD)
		cc.note(sym, regionD)
		k++
	}
	cc.closeRegion(regionD, w, &mark)
}

// decodeRegions fills cc.cur for the chunk's rows from r with hit-run
// batching. Each loop iteration peeks one 64-bit window, counts the run of
// '1' hits with a LeadingZeros64, and — when the following miss's fixed
// fields fit in the same window — decodes run and miss with a single Skip.
// Runs reaching the segment end, the window edge, or maxFusedRun fall back
// to the generic RunOfOnes path and re-peek. On a corrupt or truncated
// stream it follows the same zeros-past-the-end decode the scalar path
// performs, with ErrOverrun surfacing through r.Err() as before.
func (cc *chunkCoder) decodeRegions(r *bitstream.Reader) {
	pl := cc.plan
	cur, ref := cc.cur, cc.ref
	var cands [4]float64

	// Region U.
	cc.win = window{}
	lo, hi := pl.uRowPtr[cc.rowLo], pl.uRowPtr[cc.rowHi]
	for k := lo; k < hi; {
		w, valid := r.Peek64()
		ones := uint(bits.LeadingZeros64(^w))
		if ones > valid {
			ones = valid
		}
		rem := uint(hi - k)
		if ones < rem && ones <= maxFusedRun && ones < valid {
			// Fused path: the run and the following miss share this window.
			if ones > 0 {
				for i := uint(0); i < ones; i++ {
					slot := pl.uSlots[k+int32(i)]
					cur[slot] = ref[slot]
				}
				cc.noteHits(int64(ones))
				cc.prevU = 0
				k += int32(ones)
			}
			slot := pl.uSlots[k]
			n := cc.candsU(slot, &cands)
			cur[slot] = cc.decodeMissAt(r, ones, w, &cands, n, &cc.prevU, cc.tables.u[:])
			k++
			continue
		}
		run := int32(r.RunOfOnes(int(rem)))
		for i := int32(0); i < run; i++ {
			slot := pl.uSlots[k+i]
			cur[slot] = ref[slot]
		}
		if run > 0 {
			cc.noteHits(int64(run))
			cc.prevU = 0
			k += run
		} else if valid == 0 {
			// Exhausted stream: decode the miss from zero padding so the
			// loop advances exactly as the scalar reference does.
			slot := pl.uSlots[k]
			n := cc.candsU(slot, &cands)
			cur[slot] = cc.decodeMissAt(r, 0, 0, &cands, n, &cc.prevU, cc.tables.u[:])
			k++
		}
	}

	// Region L.
	cc.win = window{}
	for row := cc.rowLo; row < cc.rowHi; row++ {
		lastVal := 0.0
		haveLast := false
		rlo, rhi := pl.lRowPtr[row], pl.lRowPtr[row+1]
		for k := rlo; k < rhi; {
			w, valid := r.Peek64()
			ones := uint(bits.LeadingZeros64(^w))
			if ones > valid {
				ones = valid
			}
			rem := uint(rhi - k)
			if ones < rem && ones <= maxFusedRun && ones < valid {
				if ones > 0 {
					var slot int32
					for i := uint(0); i < ones; i++ {
						slot = pl.lSlots[k+int32(i)]
						cur[slot] = ref[slot]
					}
					cc.noteHits(int64(ones))
					cc.prevL = 0
					lastVal, haveLast = cur[slot], true
					k += int32(ones)
				}
				slot := pl.lSlots[k]
				n := cc.candsL(slot, lastVal, haveLast, &cands)
				v := cc.decodeMissAt(r, ones, w, &cands, n, &cc.prevL, cc.tables.l[:])
				cur[slot] = v
				lastVal, haveLast = v, true
				k++
				continue
			}
			run := int32(r.RunOfOnes(int(rem)))
			if run > 0 {
				var slot int32
				for i := int32(0); i < run; i++ {
					slot = pl.lSlots[k+i]
					cur[slot] = ref[slot]
				}
				cc.noteHits(int64(run))
				cc.prevL = 0
				lastVal, haveLast = cur[slot], true
				k += run
			} else if valid == 0 {
				slot := pl.lSlots[k]
				n := cc.candsL(slot, lastVal, haveLast, &cands)
				v := cc.decodeMissAt(r, 0, 0, &cands, n, &cc.prevL, cc.tables.l[:])
				cur[slot] = v
				lastVal, haveLast = v, true
				k++
			}
		}
	}

	// Region D.
	cc.win = window{}
	dlo, dhi := pl.dRowPtr[cc.rowLo], pl.dRowPtr[cc.rowHi]
	for k := dlo; k < dhi; {
		w, valid := r.Peek64()
		ones := uint(bits.LeadingZeros64(^w))
		if ones > valid {
			ones = valid
		}
		rem := uint(dhi - k)
		if ones < rem && ones <= maxFusedRun && ones < valid {
			if ones > 0 {
				for i := uint(0); i < ones; i++ {
					slot := pl.dSlots[k+int32(i)]
					cur[slot] = ref[slot]
				}
				cc.noteHits(int64(ones))
				cc.prevD = 0
				k += int32(ones)
			}
			slot := pl.dSlots[k]
			n := cc.candsD(pl.dRows[k], slot, &cands)
			cur[slot] = cc.decodeMissAt(r, ones, w, &cands, n, &cc.prevD, cc.tables.d[:])
			k++
			continue
		}
		run := int32(r.RunOfOnes(int(rem)))
		for i := int32(0); i < run; i++ {
			slot := pl.dSlots[k+i]
			cur[slot] = ref[slot]
		}
		if run > 0 {
			cc.noteHits(int64(run))
			cc.prevD = 0
			k += run
		} else if valid == 0 {
			slot := pl.dSlots[k]
			n := cc.candsD(pl.dRows[k], slot, &cands)
			cur[slot] = cc.decodeMissAt(r, 0, 0, &cands, n, &cc.prevD, cc.tables.d[:])
			k++
		}
	}
}
