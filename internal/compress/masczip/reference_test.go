package masczip

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"masc/internal/compress"
	"masc/internal/compress/bitstream"
	"masc/internal/compress/codectest"
	"masc/internal/sparse"
)

// The element-at-a-time reference coder: one WriteBit/ReadBit and one hit
// prediction per element, straight from the wire-format description.
// Production runs only the batched region coders in batch.go; this file is
// the oracle TestBatchedWireIdentity checks them against, bit for bit, so it
// must stay a plain transcription of the format and call nothing in batch.go —
// it shares only the candidate functions, framing and Markov calibration of
// masczip.go and the Huffman code lengths of lengthcode.go (codeLengths, which
// TestCodeLengthsAreOptimalAndComplete checks on its own), and it sums every
// row it needs itself rather than read the encoder's pre-pass cache. The temporal candidate's extrapolation and the
// pre-pass that picks its order are transcribed here a second time
// (extrapolateRef, count): every temporal candidate the oracle codes with is
// checked against that transcription, bit for bit.

// stampFunc is the region-D stamp prediction a reference coder runs, as hit
// predictor and as candidate 1.
type stampFunc func(cc *chunkCoder, k int32) float64

// newReference returns a Compressor whose pre-pass and chunks go through
// refCoder instead of countHits/encodeRegions/decodeRegions.
func newReference(p *sparse.Pattern, opt Options) *Compressor {
	return newReferenceWith(p, opt, (*chunkCoder).stampD)
}

func newReferenceWith(p *sparse.Pattern, opt Options, stamp stampFunc) *Compressor {
	c := New(p, opt)
	c.preFn = func(ci int) {
		ec, _ := c.chunkEncoder(ci)
		c.hits[ci] = (&refCoder{chunkCoder: ec, stampOf: stamp}).count()
	}
	c.encFn = func(ci int) {
		ec, w := c.chunkEncoder(ci)
		ec.stamp = nil
		_ = (&refCoder{chunkCoder: ec, stampOf: stamp}).run(w, nil)
	}
	c.decFn = func(ci int) {
		dc, r := c.chunkDecoder(ci)
		if dc.err = (&refCoder{chunkCoder: dc, stampOf: stamp}).run(nil, r); dc.err == nil {
			dc.err = r.Err()
		}
	}
	return c
}

// stampValueForm is the stamp as it was before the revision bit: −Σcur over
// the row's off-diagonals, which holds only on a row with no grounded element.
// Kept as the oracle the predictor tests measure the difference form against,
// and that nil-reference blobs must still match.
func stampValueForm(cc *chunkCoder, k int32) float64 {
	pl := cc.plan
	row, d := pl.dRows[k], pl.dSlots[k]
	sum := 0.0
	for s := pl.pat.RowPtr[row]; s < pl.pat.RowPtr[row+1]; s++ {
		if s != d {
			sum += cc.cur[s]
		}
	}
	return -sum
}

type refCoder struct {
	*chunkCoder
	stampOf stampFunc
	lengths refLengths // the region's residual-length code
	xor     *xorWindow // encoder only: code the XOR revision's residuals instead
	legacy  *int64     // encoder only: code as the 0b10 revision, with no miss-run counts, and count here the runs this one counts
}

// refRegion is one region as the format describes it.
type refRegion struct {
	rg     region
	slots  []int32
	lo, hi int32
	nSyms  int
	table  []uint8
	hitSym uint8 // 0: a hit is temporal; 1: a hit is the mate (L) or the stamp (D)
}

func (rc *refCoder) regionTable() []refRegion {
	pl := rc.plan
	t := []refRegion{
		{regionU, pl.uSlots, pl.uRowPtr[rc.rowLo], pl.uRowPtr[rc.rowHi], uSyms, rc.tables.u[:], 0},
		{regionL, pl.lSlots, pl.lRowPtr[rc.rowLo], pl.lRowPtr[rc.rowHi], lSyms, rc.tables.l[:], 0},
		{regionD, pl.dSlots, pl.dRowPtr[rc.rowLo], pl.dRowPtr[rc.rowHi], dSyms, rc.tables.d[:], 0},
	}
	if rc.mateHit {
		t[regionL].hitSym = 1
	}
	if rc.stampHit {
		t[regionD].hitSym = 1
	}
	return t
}

// mateOf: the symmetric entry's current value when its row is in this chunk,
// the temporal value otherwise.
func (rc *refCoder) mateOf(slot int32) float64 {
	t := rc.plan.tr[slot]
	if t < 0 {
		return rc.ref[slot]
	}
	if row := rc.plan.rowOf[t]; row < rc.rowLo || row >= rc.rowHi {
		return rc.ref[slot]
	}
	return rc.cur[t]
}

// hitPred is the value a hit at position k of rg stands for.
func (rc *refCoder) hitPred(rg *refRegion, k int32) float64 {
	switch {
	case rg.hitSym == 0:
		return rc.ref[rg.slots[k]]
	case rg.rg == regionL:
		return rc.mateOf(rg.slots[k])
	default:
		return rc.stampOf(rc.chunkCoder, k)
	}
}

// frameRef is slot k's value in frame i of the call's history: the nearest
// frame's, or a block's past it.
func (rc *refCoder) frameRef(i int, k int32) float64 {
	if i == 0 {
		return rc.ref[k]
	}
	return rc.far[i-1][k/compress.BlockLen][k%compress.BlockLen]
}

// extrapolateRef is the order-o temporal candidate for slot k as the format
// describes it: map the o+1 nearest frames' values to their ordered integers,
// take backward differences until one is left per level, and add the levels up
// — the value one step on of the degree-o polynomial through the frames, mod
// 2^64 — then map back.
func (rc *refCoder) extrapolateRef(o int, k int32) float64 {
	level := make([]uint64, o+1)
	for i := range level {
		b := math.Float64bits(rc.frameRef(i, k))
		if b>>63 == 0 {
			level[i] = b | 1<<63
		} else {
			level[i] = ^b
		}
	}
	sum := uint64(0)
	for len(level) > 0 {
		sum += level[0]
		for i := 0; i+1 < len(level); i++ {
			level[i] -= level[i+1]
		}
		level = level[:len(level)-1]
	}
	if sum>>63 == 1 {
		return math.Float64frombits(sum &^ (1 << 63))
	}
	return math.Float64frombits(^sum)
}

// interpolateRef is the voltage candidate's change as the format describes it:
// the table of divided differences of the points (u[i], y[i]) — each the
// difference of its two parents times the reciprocal of its divisor, zero
// where the divisor is — and the Newton form of the polynomial through them at
// at less its value at u[0], summed term by term from the first. Every
// operation is rounded by an explicit conversion, so nothing here can be fused.
func interpolateRef(u, y []float64, at float64) float64 {
	o := len(u) - 1
	dd := [][]float64{append([]float64(nil), y...)}
	for j := 1; j <= o; j++ {
		level := make([]float64, o+1-j)
		for i := range level {
			r := 0.0
			if den := float64(u[i+j] - u[i]); den != 0 {
				r = float64(1 / den)
			}
			level[i] = float64(float64(dd[j-1][i+1]-dd[j-1][i]) * r)
		}
		dd = append(dd, level)
	}
	sum, w := 0.0, 1.0
	for j := 1; j <= o; j++ {
		w = float64(w * float64(at-u[j-1]))
		sum = float64(sum + float64(dd[j][0]*w))
	}
	return sum
}

// moveRef is base moved by a change d: unmoved where d is zero, NaN or
// infinite.
func moveRef(base, d float64) float64 {
	if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return base
	}
	return float64(base + d)
}

// voltageRef is the order-o voltage candidate for a slot: a diagonal's stamp
// moved by its row sum's change in the row's node voltage, an off-diagonal's
// nearest value moved by its change in the voltage across it — unmoved where
// the change is zero, NaN or infinite.
func (rc *refCoder) voltageRef(slot int32, o int) float64 {
	pl := rc.plan
	row, col := pl.rowOf[slot], pl.pat.ColIdx[slot]
	u, y := make([]float64, o+1), make([]float64, o+1)
	var base, at float64
	if row == col {
		base = rc.stampOf(rc.chunkCoder, pl.dRowPtr[row])
		for i := range u {
			for s := pl.pat.RowPtr[row]; s < pl.pat.RowPtr[row+1]; s++ {
				y[i] += rc.frameRef(i, s)
			}
			u[i] = rc.states[1+i][row]
		}
		at = rc.states[0][row]
	} else {
		base = rc.ref[slot]
		for i := range u {
			y[i] = rc.frameRef(i, slot)
			u[i] = rc.states[1+i][row] - rc.states[1+i][col]
		}
		at = rc.states[0][row] - rc.states[0][col]
	}
	return moveRef(base, interpolateRef(u, y, at))
}

// firstRef is symbol 0 at position k of rg, which candsU, candsL and candsD
// must have put in out[0] (got): the blob's family at its order.
func (rc *refCoder) firstRef(rg *refRegion, k int32, got float64) float64 {
	slot := rg.slots[k]
	want := rc.ref[slot]
	switch {
	case rc.volt:
		want = rc.voltageRef(slot, rc.order)
	case rc.order > 0:
		want = rc.extrapolateRef(rc.order, slot)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		panic(fmt.Sprintf("slot %d: order-%d symbol 0 (voltage %v) %x, the transcription gives %x",
			slot, rc.order, rc.volt, math.Float64bits(got), math.Float64bits(want)))
	}
	return want
}

// candidates are the miss predictions at position k of rg.
func (rc *refCoder) candidates(rg *refRegion, k int32, out *[4]float64) {
	switch rg.rg {
	case regionU:
		rc.candsU(rg.slots[k], out)
		out[0] = rc.firstRef(rg, k, out[0])
	case regionL:
		rc.candsL(k, out)
		out[0] = rc.firstRef(rg, k, out[0])
	default:
		out[0] = rc.firstRef(rg, k, rc.firstD(k))
		out[1] = out[0]
		if !rc.opt.DisableStamp {
			out[1] = rc.stampOf(rc.chunkCoder, k)
		}
	}
}

// count is the pre-pass: exact matches of each candidate hit predictor, and
// per order the call's frames allow, the significant bits of the residual the
// temporal candidate leaves on the sample — of the chunk's slots 0, 7, 14, …
// the 1st, 5th, 9th, … that differ from the nearest frame — and where it
// brings states, what each family leaves at each order on the sample's 1st,
// 9th, 17th, … element.
func (rc *refCoder) count() hitCounts {
	var n hitCounts
	same := func(a, b float64) int {
		if math.Float64bits(a) == math.Float64bits(b) {
			return 1
		}
		return 0
	}
	cost := func(v, pred float64) int64 {
		return int64(bitLen(zigzagRef(int64(orderedRef(v) - orderedRef(pred)))))
	}
	pl := rc.plan
	misses := 0
	for s := pl.pat.RowPtr[rc.rowLo]; s < pl.pat.RowPtr[rc.rowHi] && (rc.nhist > 1 || rc.nvolt > 0); s += 7 {
		if same(rc.cur[s], rc.ref[s]) == 1 {
			continue
		}
		if misses++; (misses-1)%4 != 0 {
			continue
		}
		subset := rc.nvolt > 0 && (misses-1)%8 == 0 // the voltage family's half of the sample
		for o := 0; o < rc.nhist; o++ {
			c := cost(rc.cur[s], rc.extrapolateRef(o, s))
			n.orderBits[o] += c
			if subset {
				n.subsetBits[o] += c
			}
		}
		if subset {
			n.sampled++
			for o := 0; o < rc.nvolt; o++ {
				n.voltBits[o] += cost(rc.cur[s], rc.voltageRef(s, o))
			}
		}
	}
	// sel counts the misses of one hit predictor along a region, and those
	// that open a run of misses or are among its first three.
	sel := func(slots []int32, lo, hi int32, pred func(k int32) float64) selRun {
		var n selRun
		run := 0
		for k := lo; k < hi; k++ {
			if same(rc.cur[slots[k]], pred(k)) == 1 {
				run = 0
				continue
			}
			n.miss++
			if run++; run <= 3 {
				n.sel++
			}
		}
		return n
	}
	temporal := func(slots []int32) func(int32) float64 {
		return func(k int32) float64 { return rc.ref[slots[k]] }
	}
	uLo, uHi := pl.uRowPtr[rc.rowLo], pl.uRowPtr[rc.rowHi]
	lLo, lHi := pl.lRowPtr[rc.rowLo], pl.lRowPtr[rc.rowHi]
	dLo, dHi := pl.dRowPtr[rc.rowLo], pl.dRowPtr[rc.rowHi]
	mate := func(k int32) float64 { return rc.mateOf(pl.lSlots[k]) }
	stamp := func(k int32) float64 { return rc.stampOf(rc.chunkCoder, k) }
	for k := lLo; k < lHi; k++ {
		n.lTemporal += same(rc.cur[pl.lSlots[k]], temporal(pl.lSlots)(k))
		n.lMate += same(rc.cur[pl.lSlots[k]], mate(k))
	}
	for k := dLo; k < dHi; k++ {
		n.dTemporal += same(rc.cur[pl.dSlots[k]], temporal(pl.dSlots)(k))
		n.dStamp += same(rc.cur[pl.dSlots[k]], stamp(k))
	}
	n.uSel = sel(pl.uSlots, uLo, uHi, temporal(pl.uSlots))
	n.lSel = sel(pl.lSlots, lLo, lHi, temporal(pl.lSlots))
	n.lMateSel = sel(pl.lSlots, lLo, lHi, mate)
	n.dSel = sel(pl.dSlots, dLo, dHi, temporal(pl.dSlots))
	n.dStampSel = sel(pl.dSlots, dLo, dHi, stamp)
	return n
}

// orderedRef is the ordered integer of v as the format describes it: a
// non-negative value's bit pattern with the top bit set, a negative one's
// complemented.
func orderedRef(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 0 {
		return b | 1<<63
	}
	return ^b
}

// unorderedRef inverts orderedRef.
func unorderedRef(m uint64) float64 {
	if m>>63 == 1 {
		return math.Float64frombits(m &^ (1 << 63))
	}
	return math.Float64frombits(^m)
}

// zigzagRef maps 0, −1, 1, −2, … to 0, 1, 2, 3, …
func zigzagRef(d int64) uint64 {
	if d >= 0 {
		return 2 * uint64(d)
	}
	return 2*uint64(-d) - 1
}

// unzigzagRef inverts zigzagRef.
func unzigzagRef(u uint64) int64 {
	if u%2 == 0 {
		return int64(u / 2)
	}
	return -int64(u/2) - 1
}

// bitLen is the number of bits of v up to and including its leading one.
func bitLen(v uint64) int {
	n := 0
	for ; v != 0; v >>= 1 {
		n++
	}
	return n
}

// refLengths is a region's residual-length code as the format describes it:
// each length's code as a string of '0' and '1' bits, and the other way
// round. The encoder knows it before the region's first miss and writes its
// table there, in front of the miss's length code; the decoder reads the
// table there.
type refLengths struct {
	counts [lengthSymbols]uint32 // encoder only
	code   map[int]string
	length map[string]int
}

// regionLengths counts the lengths of the residuals of rg's misses, each
// against the candidate of the symbol it is coded with: in a calibration blob
// the best one, in a Markov-predicted blob the table's after the symbol
// before (the hit symbol after a hit). A miss a miss run covers is coded with
// the run's symbol, which is that symbol too.
func (rc *refCoder) regionLengths(rg *refRegion) (counts [lengthSymbols]uint32) {
	prev := uint8(0)
	for k := rg.lo; k < rg.hi; k++ {
		val := rc.cur[rg.slots[k]]
		if math.Float64bits(val) == math.Float64bits(rc.hitPred(rg, k)) {
			prev = rg.hitSym
			continue
		}
		var cands [4]float64
		rc.candidates(rg, k, &cands)
		sym := rg.table[prev]
		if rc.calib {
			sym = bestSym(val, &cands, rg.nSyms)
		}
		prev = sym
		counts[bitLen(zigzagRef(int64(orderedRef(val)-orderedRef(cands[sym]))))]++
	}
	return counts
}

// assign gives each length with a code length n its code: in order of code
// length, then of length, each code one more than the one before, shifted
// left by the code lengths between them, the first all zeros. A table of one
// length gives it the empty code.
func (lt *refLengths) assign(lens [lengthSymbols]uint8, k int, only int) {
	lt.code, lt.length = map[int]string{}, map[string]int{}
	if k == 1 {
		lt.code[only], lt.length[""] = "", only
		return
	}
	code, at := uint64(0), 0
	for n := 1; n <= maxCodeLen; n++ {
		for s, m := range lens {
			if int(m) != n {
				continue
			}
			if at > 0 {
				code++
			}
			code <<= uint(n - at)
			at = n
			c := fmt.Sprintf("%0*b", n, code)
			lt.code[s], lt.length[c] = c, s
		}
	}
}

// writeTable writes the region's length table: γ of the number of lengths,
// then each length, ascending, as γ of its distance from the one before (from
// −1 for the first) and, where there is more than one, its code's length in
// four bits.
func (rc *refCoder) writeTable(w *bitstream.Writer) {
	lt := &rc.lengths
	var lens [lengthSymbols]uint8
	k := codeLengths(&lt.counts, &lens)
	writeGammaRef(w, uint64(k))
	prev, only := -1, 0
	for s, c := range lt.counts {
		if c == 0 {
			continue
		}
		writeGammaRef(w, uint64(s-prev))
		prev, only = s, s
		for i := codeLenBits - 1; k > 1 && i >= 0; i-- {
			w.WriteBit(uint64(lens[s]) >> uint(i) & 1)
		}
	}
	lt.assign(lens, k, only)
}

// readTable reads what writeTable wrote: a table that names no length, one
// past 64, a code of no bits beside others, or codes that overfill or leave
// part of the space of 15-bit strings is refused.
func (rc *refCoder) readTable(r *bitstream.Reader) error {
	k, ok := gammaRef(r)
	if !ok {
		return fmt.Errorf("%w: size γ code has 32 or more leading zeros", ErrLengthTable)
	}
	var lens [lengthSymbols]uint8
	s := -1
	for i := uint64(0); i < k; i++ {
		d, ok := gammaRef(r)
		if !ok {
			return fmt.Errorf("%w: symbol γ code has 32 or more leading zeros", ErrLengthTable)
		}
		if d > lengthSymbols || s+int(d) > 64 {
			return fmt.Errorf("%w: length %d is above 64", ErrLengthTable, int64(s)+int64(d))
		}
		s += int(d)
		for j := 0; k > 1 && j < codeLenBits; j++ {
			lens[s] = lens[s]<<1 | uint8(r.ReadBit())
		}
		if k > 1 && lens[s] == 0 {
			return fmt.Errorf("%w: length %d has a code of 0 bits beside %d others", ErrLengthTable, s, k-1)
		}
	}
	if k > 1 {
		space := 0 // in units of 2^−15
		for _, n := range lens {
			if n > 0 {
				space += 1 << (maxCodeLen - int(n))
			}
		}
		if space > 1<<maxCodeLen {
			return fmt.Errorf("%w: codes over-subscribed (Kraft sum %d/%d)", ErrLengthTable, space, 1<<maxCodeLen)
		}
		if space < 1<<maxCodeLen {
			return fmt.Errorf("%w: codes incomplete (Kraft sum %d/%d)", ErrLengthTable, space, 1<<maxCodeLen)
		}
	}
	rc.lengths.assign(lens, int(k), s)
	return nil
}

// encodeResidual writes the residual of val against pred: the ordered-integer
// distance z, zigzagged, as its length's code — after the region's table, at
// its first miss — followed by z's bits below its leading one.
func (rc *refCoder) encodeResidual(w *bitstream.Writer, val, pred float64) {
	before := w.BitLen()
	if rc.lengths.code == nil {
		rc.writeTable(w)
	}
	z := zigzagRef(int64(orderedRef(val) - orderedRef(pred)))
	l := bitLen(z)
	for _, b := range rc.lengths.code[l] {
		w.WriteBit(uint64(b - '0'))
	}
	for i := l - 2; i >= 0; i-- {
		w.WriteBit(z >> uint(i) & 1)
	}
	rc.stats.LZHist[(64-l)/8]++
	rc.stats.PayloadBits += int64(w.BitLen() - before)
}

// decodeResidual mirrors encodeResidual and returns the value.
func (rc *refCoder) decodeResidual(r *bitstream.Reader, pred float64) (float64, error) {
	if rc.lengths.length == nil {
		if err := rc.readTable(r); err != nil {
			return 0, err
		}
	}
	code := ""
	l, ok := rc.lengths.length[code]
	for !ok {
		if len(code) == maxCodeLen {
			return 0, fmt.Errorf("%w: %s is no length's code", ErrLengthTable, code)
		}
		code += string(rune('0' + r.ReadBit()))
		l, ok = rc.lengths.length[code]
	}
	var z uint64
	if l > 0 {
		z = 1
		for i := 1; i < l; i++ {
			z = z<<1 | r.ReadBit()
		}
	}
	return unorderedRef(orderedRef(pred) + uint64(unzigzagRef(z))), nil
}

// selectorBits is the width of region rg's best-fit selector.
func selectorBits(nSyms int) uint {
	if nSyms == 2 {
		return 1
	}
	return 2
}

// writeGammaRef writes the Elias-γ code of v: as many '0' bits as the value
// has bits after its first, then the value.
func writeGammaRef(w *bitstream.Writer, v uint64) {
	nb := uint(bits.Len64(v))
	for i := uint(1); i < nb; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(v, nb)
}

// gammaRef reads what writeGammaRef wrote, or reports false at the 32nd
// leading zero.
func gammaRef(r *bitstream.Reader) (uint64, bool) {
	z := 0
	for r.ReadBit() == 0 {
		if z++; z >= 32 {
			return 0, false
		}
	}
	return uint64(1)<<uint(z) | r.ReadBits(uint(z)), true
}

// writeGamma writes a run's length as writeGammaRef does and books it.
func (rc *refCoder) writeGamma(w *bitstream.Writer, v uint64) {
	writeGammaRef(w, v)
	rc.stats.RunLengthBits += int64(2*bits.Len64(v) - 1)
}

// readRunGamma reads a run's length; what names the run it counts.
func readRunGamma(r *bitstream.Reader, rg *refRegion, what string) (uint64, error) {
	v, ok := gammaRef(r)
	if !ok {
		return 0, fmt.Errorf("region %s: %s γ code has 32 or more leading zeros", rg.rg, what)
	}
	return v, nil
}

// writeRun writes n pending hits: unary below eight, else eight '1' bits and
// the Elias-γ code of n − 7.
func (rc *refCoder) writeRun(w *bitstream.Writer, rg *refRegion, n int32) {
	before := w.BitLen()
	for i := int32(0); i < n && i < 8; i++ {
		w.WriteBit(1)
	}
	if n >= 8 {
		rc.writeGamma(w, uint64(n-7))
	}
	rc.stats.Elements += int64(n)
	rc.stats.LZHist[8] += int64(n)
	rc.stats.PayloadBits += int64(w.BitLen() - before)
	rc.stats.HitRuns[rg.rg]++
	rc.stats.RegionHits[rg.rg] += int64(n)
}

// writeMiss writes one element its hit predictor missed; marker is false
// right after a run of eight or more.
func (rc *refCoder) writeMiss(w *bitstream.Writer, rg *refRegion, k int32, prev *uint8, marker bool) {
	var cands [4]float64
	rc.candidates(rg, k, &cands)
	val := rc.cur[rg.slots[k]]
	if marker {
		w.WriteBit(0)
		rc.stats.PayloadBits++
	}
	var sym uint8
	if rc.calib {
		sym = bestSym(val, &cands, rg.nSyms)
		w.WriteBits(uint64(sym), selectorBits(rg.nSyms))
		if rc.counts != nil {
			switch rg.rg {
			case regionU:
				rc.counts.u[*prev][sym]++
			case regionL:
				rc.counts.l[*prev][sym]++
			case regionD:
				rc.counts.d[*prev][sym]++
			}
		}
		rc.stats.SelectorBits += int64(selectorBits(rg.nSyms))
	} else {
		sym = rg.table[*prev]
		if rc.statsOn {
			rc.stats.MarkovPredicted++
			if math.Float64bits(val) == math.Float64bits(cands[sym]) {
				rc.stats.MarkovExact++
			}
		}
	}
	*prev = sym
	rc.writeResidual(w, val, cands[sym])
	rc.note(sym, rg.rg, 1)
	rc.stats.RegionMisses[rg.rg]++
}

// writeResidual writes the residual of val against pred in the revision's
// residual code.
func (rc *refCoder) writeResidual(w *bitstream.Writer, val, pred float64) {
	if rc.xor != nil {
		rc.xor.write(w, val, pred)
	} else {
		rc.encodeResidual(w, val, pred)
	}
}

// symbolAt is the symbol a miss at position k of rg would take after prev.
func (rc *refCoder) symbolAt(rg *refRegion, k int32, prev uint8) uint8 {
	if !rc.calib {
		return rg.table[prev]
	}
	var cands [4]float64
	rc.candidates(rg, k, &cands)
	return bestSym(rc.cur[rg.slots[k]], &cands, rg.nSyms)
}

// writeCovered writes a miss a miss run covers: its residual against the
// run's symbol, prev, alone.
func (rc *refCoder) writeCovered(w *bitstream.Writer, rg *refRegion, k int32, prev uint8) {
	var cands [4]float64
	rc.candidates(rg, k, &cands)
	val := rc.cur[rg.slots[k]]
	if rc.calib {
		if rc.counts != nil {
			rc.counts.add(rg.rg, prev, prev, 1)
		}
	} else if rc.statsOn {
		rc.stats.MarkovPredicted++
		if math.Float64bits(val) == math.Float64bits(cands[prev]) {
			rc.stats.MarkovExact++
		}
	}
	rc.writeResidual(w, val, cands[prev])
	rc.note(prev, rg.rg, 1)
	rc.stats.RegionMisses[rg.rg]++
}

// readCovered reads what writeCovered wrote.
func (rc *refCoder) readCovered(r *bitstream.Reader, rg *refRegion, k int32, prev uint8) error {
	var cands [4]float64
	rc.candidates(rg, k, &cands)
	v, err := rc.decodeResidual(r, cands[prev])
	if err != nil {
		return fmt.Errorf("region %s: %w", rg.rg, err)
	}
	rc.cur[rg.slots[k]] = v
	return nil
}

// readMiss reads what writeMiss wrote past the marker.
func (rc *refCoder) readMiss(r *bitstream.Reader, rg *refRegion, k int32, prev *uint8) error {
	var cands [4]float64
	rc.candidates(rg, k, &cands)
	var sym uint8
	if rc.calib {
		sym = uint8(r.ReadBits(selectorBits(rg.nSyms)))
	} else {
		sym = rg.table[*prev]
	}
	*prev = sym
	v, err := rc.decodeResidual(r, cands[sym])
	if err != nil {
		return fmt.Errorf("region %s: %w", rg.rg, err)
	}
	rc.cur[rg.slots[k]] = v
	return nil
}

// run drives the shared encode/decode control flow. Exactly one of w and r is
// non-nil. same counts the misses in a row of symbol prev — no hit between
// them — since the last hit, symbol change or miss-run count; the third is
// followed by the Elias-γ code of one more than the number of misses after it
// that keep the symbol, and those are residuals alone.
func (rc *refCoder) run(w *bitstream.Writer, r *bitstream.Reader) error {
	for _, rg := range rc.regionTable() {
		rg := rg
		rc.lengths = refLengths{}
		if rc.xor != nil {
			*rc.xor = xorWindow{}
		} else if w != nil {
			rc.lengths.counts = rc.regionLengths(&rg)
		}
		prev := uint8(0)
		same := 0
		marker := true // the next miss carries its '0'
		// counted books a miss of symbol prev after one of symbol before, and
		// reports whether a miss-run count follows it.
		counted := func(before uint8) bool {
			if same > 0 && prev == before {
				same++
			} else {
				same = 1
			}
			if same < 3 {
				return false
			}
			same = 0
			return true
		}
		isHit := func(k int32) bool {
			return math.Float64bits(rc.cur[rg.slots[k]]) == math.Float64bits(rc.hitPred(&rg, k))
		}
		if w != nil {
			start := w.BitLen()
			pending := int32(0)
			flush := func() {
				if pending > 0 {
					rc.writeRun(w, &rg, pending)
					prev = rg.hitSym
					same = 0
					marker = pending < 8
					pending = 0
				}
			}
			for k := rg.lo; k < rg.hi; k++ {
				if isHit(k) {
					pending++
					continue
				}
				flush()
				before := prev
				rc.writeMiss(w, &rg, k, &prev, marker)
				marker = true
				if !counted(before) {
					continue
				}
				n := int32(0)
				for j := k + 1; j < rg.hi && !isHit(j) && rc.symbolAt(&rg, j, prev) == prev; j++ {
					n++
				}
				if rc.legacy != nil {
					atomic.AddInt64(rc.legacy, 1)
					for j := k + 1; j <= k+n; j++ {
						rc.writeMiss(w, &rg, j, &prev, true)
					}
					k += n
					continue
				}
				at := w.BitLen()
				rc.writeGamma(w, uint64(n)+1)
				rc.stats.PayloadBits += int64(w.BitLen() - at)
				for j := k + 1; j <= k+n; j++ {
					rc.writeCovered(w, &rg, j, prev)
				}
				k += n
			}
			flush()
			rc.stats.RegionBits[rg.rg] += int64(w.BitLen() - start)
			continue
		}
		// missed reads the miss at position k past its marker, and the miss run
		// it may close, and returns the position after them.
		missed := func(k int32) (int32, error) {
			before := prev
			if err := rc.readMiss(r, &rg, k, &prev); err != nil {
				return 0, err
			}
			if k++; !counted(before) {
				return k, nil
			}
			v, err := readRunGamma(r, &rg, "miss run")
			if err != nil {
				return 0, err
			}
			if rem := rg.hi - k; v-1 > uint64(rem) {
				return 0, fmt.Errorf("region %s: miss run of %d exceeds the %d slots left", rg.rg, v-1, rem)
			}
			for end := k + int32(v-1); k < end; k++ {
				if err := rc.readCovered(r, &rg, k, prev); err != nil {
					return 0, err
				}
			}
			return k, nil
		}
		for k := rg.lo; k < rg.hi && r.Err() == nil; {
			if !marker {
				var err error
				if k, err = missed(k); err != nil {
					return err
				}
				marker = true
				continue
			}
			// Unary part of a run: up to eight '1' bits, never past the region.
			rem := rg.hi - k
			lim := rem
			if lim > 8 {
				lim = 8
			}
			n := int32(0)
			sawMarker := false
			for n < lim {
				if r.ReadBit() == 0 {
					sawMarker = true
					break
				}
				n++
			}
			if n == 8 {
				v, err := readRunGamma(r, &rg, "hit run")
				if err != nil {
					return err
				}
				if v+7 > uint64(rem) {
					return fmt.Errorf("region %s: hit run of %d exceeds the %d slots left", rg.rg, v+7, rem)
				}
				n = int32(v + 7)
				marker = false
			}
			for i := int32(0); i < n; i++ {
				rc.cur[rg.slots[k+i]] = rc.hitPred(&rg, k+i)
			}
			if n > 0 {
				prev = rg.hitSym
				same = 0
				k += n
			}
			if sawMarker {
				var err error
				if k, err = missed(k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// streamBits is the length in bits of the chunk streams of c's last Compress.
func streamBits(c *Compressor) int {
	n := 0
	for ci := 0; ci < len(c.curBounds)-1; ci++ {
		n += c.writers[ci].BitLen()
	}
	return n
}

// legacyBits codes frames as a store chain under the region coder of the 0b10
// revision — the same choices and hit runs, every miss with its marker and
// selector — and returns the chunk streams' total length in bits and how many
// miss runs this revision counts where that one did not, in calibration blobs
// (runs[0]) and in Markov-predicted ones (runs[1]). It is the yardstick of the
// miss-run size property test; nothing decodes what it writes.
func legacyBits(p *sparse.Pattern, opt Options, frames [][]float64) (n int, runs [2]int64) {
	c := New(p, opt)
	c.encFn = func(ci int) {
		ec, w := c.chunkEncoder(ci)
		ec.stamp = nil
		_ = (&refCoder{chunkCoder: ec, stampOf: (*chunkCoder).stampD, legacy: &runs[boolInt(!ec.calib)]}).run(w, nil)
	}
	for i := range frames {
		var ref []float64
		if i+1 < len(frames) {
			ref = frames[i+1]
		}
		c.Compress(nil, frames[i], ref)
		n += streamBits(c)
	}
	return n, runs
}

// xorWindow is the residual coder of the revision before the distance code,
// encode half only, kept as the yardstick xorBits gives the distance code's
// size test: the XOR of value and prediction, '1' when it is zero, else '01'
// and its bits inside the previous window, or '00', its leading-zero class in
// steps of 8 (3 bits), the length from there to its last one (6 bits, less
// one) and those bits. The window is shared only where the residual fits it
// and re-describing a tight one would not be shorter.
type xorWindow struct{ lz8, len uint }

func (win *xorWindow) write(w *bitstream.Writer, val, pred float64) {
	x := math.Float64bits(val) ^ math.Float64bits(pred)
	if x == 0 {
		w.WriteBit(1)
		return
	}
	w.WriteBit(0)
	lz := uint(bits.LeadingZeros64(x))
	lz8 := lz &^ 7
	tz := uint(bits.TrailingZeros64(x))
	length := 64 - lz8 - tz
	prevShift := 64 - win.lz8 - win.len
	if win.len > 0 && lz >= win.lz8 && tz >= prevShift && win.len <= length+9 {
		w.WriteBit(1)
		w.WriteBits(x>>prevShift, win.len)
		return
	}
	w.WriteBit(0)
	w.WriteBits(uint64(lz8>>3), 3)
	w.WriteBits(uint64(length-1), 6)
	w.WriteBits(x>>tz, length)
	win.lz8, win.len = lz8, length
}

// xorBits codes frames as a store chain against depth frames of history, with
// the production coder's choices and the XOR residuals of the revision before
// the distance code, and returns the total length in bits of the chained
// blobs' chunk streams (all but the head's).
func xorBits(p *sparse.Pattern, opt Options, frames [][]float64, depth int) int {
	c := New(p, opt)
	c.encFn = func(ci int) {
		ec, w := c.chunkEncoder(ci)
		ec.stamp = nil
		_ = (&refCoder{chunkCoder: ec, stampOf: (*chunkCoder).stampD, xor: &xorWindow{}}).run(w, nil)
	}
	n := 0
	for i := range frames[:len(frames)-1] {
		c.CompressHistory(nil, frames[i], codectest.Frames(historyOf(frames, i, depth)), nil)
		n += streamBits(c)
	}
	return n
}
