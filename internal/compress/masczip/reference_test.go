package masczip

import (
	"math"
	"math/bits"

	"masc/internal/compress/bitstream"
	"masc/internal/sparse"
)

// The element-at-a-time reference coder: one WriteBit/ReadBit plus a
// candidate computation per element, straight from the wire-format
// description. Production runs only the batched region coders in batch.go;
// this file is the oracle TestBatchedWireIdentity checks them against, bit
// for bit, so it must stay a plain transcription of the format.

// newReference returns a Compressor whose chunks go through runRegions
// instead of encodeRegions/decodeRegions. Framing, chunking and Markov
// calibration are the production code.
func newReference(p *sparse.Pattern, opt Options) *Compressor {
	return newReferenceWith(p, opt, (*chunkCoder).candsD)
}

// candsDFunc is the region-D predictor a reference coder runs.
type candsDFunc func(cc *chunkCoder, row, k int32, out *[4]float64) int

func newReferenceWith(p *sparse.Pattern, opt Options, candsD candsDFunc) *Compressor {
	c := New(p, opt)
	c.encFn = func(ci int) {
		ec, w := c.chunkEncoder(ci)
		ec.runRegions(w, nil, candsD)
	}
	c.decFn = func(ci int) {
		dc, r := c.chunkDecoder(ci)
		dc.runRegions(nil, r, candsD)
	}
	return c
}

// candsDValueForm is region D as it was before the revision bit: the stamp
// candidate is −Σcur over the row's off-diagonals, which holds only on a row
// with no grounded element. Kept as the oracle the predictor tests measure
// the difference form against, and that nil-reference blobs must still match.
func candsDValueForm(cc *chunkCoder, row, k int32, out *[4]float64) int {
	out[0] = cc.ref[k]
	if cc.opt.DisableStamp {
		out[1] = out[0]
		return 2
	}
	pl := cc.plan
	sum := 0.0
	for s := pl.pat.RowPtr[row]; s < pl.pat.RowPtr[row+1]; s++ {
		if s != k {
			sum += cc.cur[s]
		}
	}
	out[1] = -sum
	return 2
}

// encodeResidual writes the XOR residual with the window code.
func (cc *chunkCoder) encodeResidual(w *bitstream.Writer, val, pred float64) {
	x := math.Float64bits(val) ^ math.Float64bits(pred)
	if x == 0 {
		w.WriteBit(1)
		cc.stats.LZHist[8]++
		cc.stats.PayloadBits++
		return
	}
	before := w.BitLen()
	w.WriteBit(0)
	lz := uint(bits.LeadingZeros64(x))
	// Branch-free byte-class: x != 0 bounds lz at 63, so lz&^7 is already
	// capped at 56 — no clamp needed.
	lz8 := lz &^ 7
	tz := uint(bits.TrailingZeros64(x))
	length := 64 - lz8 - tz
	prevShift := 64 - cc.win.lz8 - cc.win.len
	// Share the previous window only when the residual fits it AND the
	// shared form is no longer than re-describing a tight window (1+len
	// shared vs 10+len fresh): a stale wide window wastes bits.
	fits := !cc.opt.DisableSharedWindow && cc.win.len > 0 &&
		lz >= cc.win.lz8 && tz >= prevShift && cc.win.len <= length+9
	if fits {
		w.WriteBit(1)
		w.WriteBits(x>>prevShift, cc.win.len)
	} else {
		w.WriteBit(0)
		w.WriteBits(uint64(lz8>>3), 3)
		w.WriteBits(uint64(length-1), 6)
		w.WriteBits(x>>tz, length)
		cc.win.lz8 = lz8
		cc.win.len = length
	}
	cc.stats.LZHist[lz8>>3]++
	cc.stats.PayloadBits += int64(w.BitLen() - before)
}

// decodeResidual mirrors encodeResidual and returns the value; the batched
// decoder fuses these reads into the single-peek field extraction of
// decodeMissAt.
func (cc *chunkCoder) decodeResidual(r *bitstream.Reader, pred float64) float64 {
	if r.ReadBit() == 1 {
		return pred
	}
	var x uint64
	if r.ReadBit() == 1 {
		prevShift := 64 - cc.win.lz8 - cc.win.len
		x = r.ReadBits(cc.win.len) << prevShift
	} else {
		lz8 := uint(r.ReadBits(3)) << 3
		length := uint(r.ReadBits(6)) + 1
		x = r.ReadBits(length) << (64 - lz8 - length)
		cc.win.lz8 = lz8
		cc.win.len = length
	}
	return math.Float64frombits(math.Float64bits(pred) ^ x)
}

// codeElement encodes or decodes one element (exactly one of w, r is
// non-nil) in the per-element wire format documented in batch.go, and
// returns the decoded value (decoder) or val (encoder), plus the selected
// model symbol for statistics.
func (cc *chunkCoder) codeElement(w *bitstream.Writer, r *bitstream.Reader,
	val float64, cands *[4]float64, nSyms int, prev *uint8,
	table []uint8, counts func(prev, sym uint8)) (float64, uint8) {

	if w != nil { // encode
		if math.Float64bits(val) == math.Float64bits(cands[0]) {
			w.WriteBit(1)
			cc.stats.Elements++
			cc.stats.PayloadBits++
			cc.stats.LZHist[8]++
			*prev = 0
			return val, 0
		}
		w.WriteBit(0)
		cc.stats.PayloadBits++
		var sym uint8
		if cc.calib {
			sym = bestSym(val, cands, nSyms)
			bitsN := uint(2)
			if nSyms == 2 {
				bitsN = 1
			}
			w.WriteBits(uint64(sym), bitsN)
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
		cc.encodeResidual(w, val, cands[sym])
		return val, sym
	}
	// decode
	if r.ReadBit() == 1 {
		*prev = 0
		return cands[0], 0
	}
	var sym uint8
	if cc.calib {
		bitsN := uint(2)
		if nSyms == 2 {
			bitsN = 1
		}
		sym = uint8(r.ReadBits(bitsN))
	} else {
		sym = table[*prev]
	}
	*prev = sym
	return cc.decodeResidual(r, cands[sym]), sym
}

// runRegions drives the shared encode/decode control flow. Exactly one of
// w and r is non-nil.
func (cc *chunkCoder) runRegions(w *bitstream.Writer, r *bitstream.Reader, candsD candsDFunc) {
	pl := cc.plan
	var cands [4]float64

	countU := func(p, s uint8) { cc.counts.u[p][s]++ }
	countL := func(p, s uint8) { cc.counts.l[p][s]++ }
	countD := func(p, s uint8) { cc.counts.d[p][s]++ }
	if cc.counts == nil {
		countU, countL, countD = nil, nil, nil
	}

	var mark regionMark
	closeRegion := func(rg region) {
		if w != nil {
			cc.closeRegion(rg, w, &mark)
		}
	}

	// Region U.
	cc.win = window{}
	for k := pl.uRowPtr[cc.rowLo]; k < pl.uRowPtr[cc.rowHi]; k++ {
		slot := pl.uSlots[k]
		n := cc.candsU(slot, &cands)
		var val float64
		if w != nil {
			val = cc.cur[slot]
		}
		v, sym := cc.codeElement(w, r, val, &cands, n, &cc.prevU, cc.tables.u[:], countU)
		if r != nil {
			cc.cur[slot] = v
		} else if math.Float64bits(val) != math.Float64bits(cands[0]) {
			cc.note(sym, regionU)
		}
	}
	closeRegion(regionU)

	// Region L: per-row last-value chaining.
	cc.win = window{}
	for row := cc.rowLo; row < cc.rowHi; row++ {
		lastVal := 0.0
		haveLast := false
		for k := pl.lRowPtr[row]; k < pl.lRowPtr[row+1]; k++ {
			slot := pl.lSlots[k]
			n := cc.candsL(slot, lastVal, haveLast, &cands)
			var val float64
			if w != nil {
				val = cc.cur[slot]
			}
			v, sym := cc.codeElement(w, r, val, &cands, n, &cc.prevL, cc.tables.l[:], countL)
			if r != nil {
				cc.cur[slot] = v
			} else if math.Float64bits(val) != math.Float64bits(cands[0]) {
				cc.note(sym, regionL)
			}
			lastVal, haveLast = v, true
		}
	}
	closeRegion(regionL)

	// Region D.
	cc.win = window{}
	for row := cc.rowLo; row < cc.rowHi; row++ {
		slot := pl.diag[row]
		if slot < 0 {
			continue
		}
		n := candsD(cc, row, slot, &cands)
		var val float64
		if w != nil {
			val = cc.cur[slot]
		}
		v, sym := cc.codeElement(w, r, val, &cands, n, &cc.prevD, cc.tables.d[:], countD)
		if r != nil {
			cc.cur[slot] = v
		} else if math.Float64bits(val) != math.Float64bits(cands[0]) {
			cc.note(sym, regionD)
		}
	}
	closeRegion(regionD)
}
