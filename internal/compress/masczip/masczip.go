package masczip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"masc/internal/compress"
	"masc/internal/compress/bitstream"
	"masc/internal/obs/span"
	"masc/internal/sparse"
	"masc/internal/workpool"
)

// Options configures a Compressor.
type Options struct {
	// Markov enables the Markov model-selection mode: most matrices carry
	// no per-element selector bits; every CalibEvery-th matrix runs
	// best-fit selection and refreshes the transition statistics. A matrix
	// whose table would save fewer selector bits than the table's own 24 is
	// coded best-fit too, without the table.
	Markov bool
	// CalibEvery is the calibration period in Markov mode (default 16).
	CalibEvery int
	// Workers > 1 splits each matrix into row chunks compressed in
	// parallel goroutines.
	Workers int
	// CollectStats accumulates model-selection and residual statistics
	// (Figures 5b and 6 of the paper).
	CollectStats bool

	// Ablation switches.
	DisableStamp     bool // drop the stamp-based spatial candidates; every hit is then temporal
	DisableLastValue bool // drop the last-value candidate in region L
}

// Stats aggregates encoder-side statistics across all compressed matrices.
type Stats struct {
	Elements int64
	// SelectorElements counts elements that actually went through model
	// selection (their region's hit predictor was not bit-exact); the
	// model-family counters below partition it. Hits take the run-coded fast
	// path and are not "selections" (Figure 6 semantics of the paper) —
	// including the mate and stamp predictions a blob's flags made hits.
	SelectorElements int64
	Temporal         int64
	Stamp            int64
	LastValue        int64
	// LZHist[i] counts residuals — zigzagged ordered-integer distances, as
	// coded — whose leading-zero class is 8·i (i = 0..7); LZHist[8] counts
	// zero residuals, the hits among them.
	LZHist [9]int64
	// SelectorBits / PayloadBits split the stream cost: the selector bits
	// written against everything else (hit bits, miss markers, run lengths,
	// length tables, residuals), so their sum is the chunk streams' length in
	// bits. A miss a miss run covers is still a selection — counted in
	// SelectorElements and its model family — but writes no selector.
	SelectorBits int64
	PayloadBits  int64
	// RegionMisses / RegionBits split the same stream by region, indexed
	// U, L, D: the elements whose hit predictor was not bit-exact (summing
	// to SelectorElements) and the bits the region's hits and misses took
	// (summing to SelectorBits + PayloadBits). RegionHits are the rest of
	// each region's elements, coded in HitRuns maximal runs.
	RegionMisses [3]int64
	RegionBits   [3]int64
	RegionHits   [3]int64
	HitRuns      [3]int64
	// RunLengthBits counts the γ-coded length fields (part of PayloadBits):
	// of the runs of longRun hits or more, and of the runs of misses that
	// keep their symbol.
	RunLengthBits int64
	// MateBlobs / StampBlobs count the blobs whose flags made region L's
	// hit predictor the symmetric mate and region D's the difference stamp.
	MateBlobs  int64
	StampBlobs int64
	// OrderBlobs[o] counts the blobs whose symbol-0 candidate reads o+1
	// reference frames, in either family; they sum to the blobs compressed.
	// VoltBlobs[o] counts the part of OrderBlobs[o] that interpolated in the
	// branch voltage (voltage.go) rather than extrapolating in time.
	OrderBlobs [MaxOrder + 1]int64
	VoltBlobs  [MaxOrder + 1]int64
	// MarkovPredicted counts elements whose selector came from the frozen
	// Markov table (non-calibration matrices, no selector bits on the
	// wire); MarkovExact counts the subset whose predicted model
	// reproduced the value bit-exactly. Their ratio is the Markov hit
	// rate.
	MarkovPredicted int64
	MarkovExact     int64
}

// MarkovHitRate is MarkovExact/MarkovPredicted (0 when nothing was
// table-predicted).
func (s *Stats) MarkovHitRate() float64 {
	if s.MarkovPredicted == 0 {
		return 0
	}
	return float64(s.MarkovExact) / float64(s.MarkovPredicted)
}

// Merge adds o's counters to s: the statistics of two encoders (a run's G and
// C), or of one encoder's chunks, as one.
func (s *Stats) Merge(o *Stats) {
	s.Elements += o.Elements
	s.SelectorElements += o.SelectorElements
	s.Temporal += o.Temporal
	s.Stamp += o.Stamp
	s.LastValue += o.LastValue
	for i := range s.LZHist {
		s.LZHist[i] += o.LZHist[i]
	}
	s.SelectorBits += o.SelectorBits
	s.PayloadBits += o.PayloadBits
	for i := range s.RegionBits {
		s.RegionMisses[i] += o.RegionMisses[i]
		s.RegionBits[i] += o.RegionBits[i]
		s.RegionHits[i] += o.RegionHits[i]
		s.HitRuns[i] += o.HitRuns[i]
	}
	s.RunLengthBits += o.RunLengthBits
	s.MateBlobs += o.MateBlobs
	s.StampBlobs += o.StampBlobs
	for i := range s.OrderBlobs {
		s.OrderBlobs[i] += o.OrderBlobs[i]
		s.VoltBlobs[i] += o.VoltBlobs[i]
	}
	s.MarkovPredicted += o.MarkovPredicted
	s.MarkovExact += o.MarkovExact
}

// Compressor implements compress.Compressor for one shared pattern.
// It is not safe for concurrent use by multiple goroutines (internally it
// parallelizes over chunks when Workers > 1).
type Compressor struct {
	plan  *plan
	opt   Options
	seq   int // matrices compressed so far
	cnt   markovCounts
	stats Stats
	zeros []float64

	// Per-chunk scratch reused across calls. A MASC run compresses the
	// Jacobian tensor thousands of times through one Compressor, so the
	// hot path must not allocate: writers/readers keep their buffers,
	// coders/counts/chStats are cleared in place, and the chunk fan-out
	// goes through the persistent workpool instead of fresh goroutines.
	encBounds []int32 // cached chunkRows(opt.Workers)
	hits      []hitCounts
	stamp     []float64 // the encoder's stamp prediction per packed diagonal (countHits)
	curBounds []int32   // bounds of the call in flight (encode or decode)
	writers   []*bitstream.Writer
	readers   []*bitstream.Reader
	coders    []chunkCoder
	counts    []markovCounts
	chStats   []Stats
	decBounds []int32
	lens      []int
	starts    []int
	ahead     [][]float64 // per chunk: room for a miss run as long as its longest region
	events    [][]event   // per chunk: the encoder's decided region (batch.go)
	luts      [][]uint16  // per chunk: the decoder's length decode table (lengthcode.go)

	// Call state shared with encFn/decFn, which are allocated once here
	// rather than as per-call closures.
	cur, ref []float64
	far      []compress.Blocks // the reference frames past ref, nearest first
	nhist    int               // the frames the call brings: ref and far, or none
	states   [][]float64       // the coded step's state, then frame i's at 1+i (ref is frame 0); nil with none
	blob     []byte
	calib    bool
	mateHit  bool // region L's hit predictor is the symmetric mate
	stampHit bool // region D's hit predictor is the difference stamp
	order    int  // the blob's symbol-0 candidate reads ref and far[:order]
	volt     bool // ... interpolating in the branch voltage (voltage.go), not extrapolating in time
	tbl      markovTables
	preFn    func(int)
	encFn    func(int)
	decFn    func(int)

	// Codec-level span tracing. The owning store serializes all calls on
	// one Compressor, so these are set without synchronization between
	// calls; nil spanRec (the default) keeps the hot path untouched.
	spanRec    *span.Recorder
	spanParent span.ID
}

// New returns a MASC compressor bound to pattern p.
func New(p *sparse.Pattern, opt Options) *Compressor {
	if opt.CalibEvery <= 0 {
		opt.CalibEvery = 16
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	c := &Compressor{plan: newPlan(p), opt: opt}
	c.preFn = c.countChunk
	c.encFn = c.encodeChunk
	c.decFn = c.decodeChunk
	return c
}

// ensureChunks grows the per-chunk scratch to hold nchunks entries.
func (c *Compressor) ensureChunks(nchunks int) {
	for len(c.writers) < nchunks {
		c.writers = append(c.writers, bitstream.NewWriter(1024))
	}
	for len(c.readers) < nchunks {
		c.readers = append(c.readers, bitstream.NewReader(nil))
	}
	if cap(c.coders) < nchunks {
		c.coders = make([]chunkCoder, nchunks)
	}
	c.coders = c.coders[:cap(c.coders)]
	if cap(c.counts) < nchunks {
		c.counts = make([]markovCounts, nchunks)
	}
	c.counts = c.counts[:cap(c.counts)]
	if cap(c.chStats) < nchunks {
		c.chStats = make([]Stats, nchunks)
	}
	c.chStats = c.chStats[:cap(c.chStats)]
	if cap(c.hits) < nchunks {
		c.hits = make([]hitCounts, nchunks)
	}
	c.hits = c.hits[:cap(c.hits)]
	for len(c.ahead) < nchunks {
		c.ahead = append(c.ahead, nil)
		c.events = append(c.events, nil)
		c.luts = append(c.luts, nil)
	}
}

// SetSpans installs a span recorder: each Compress/Decompress call then
// records an encode/decode span under the parent set by SetSpanParent.
func (c *Compressor) SetSpans(rec *span.Recorder) { c.spanRec = rec }

// SetSpanParent sets the parent span for subsequent codec spans. The owning
// store calls it right before Compress/Decompress so codec work nests under
// the store's compress/decompress span.
func (c *Compressor) SetSpanParent(id span.ID) { c.spanParent = id }

// Name implements compress.Compressor.
func (c *Compressor) Name() string {
	if c.opt.Markov {
		return "masc+markov"
	}
	return "masc"
}

// Lossless implements compress.Compressor.
func (c *Compressor) Lossless() bool { return true }

// Stats returns the accumulated encoder statistics.
func (c *Compressor) Stats() Stats { return c.stats }

// ResetStats clears the accumulated statistics.
func (c *Compressor) ResetStats() { c.stats = Stats{} }

// The header is one flags byte. flagCalib marks a blob in the calibration
// form (best-fit selectors, no Markov tables): every blob of a best-fit
// compressor, and a Markov compressor's calibration blobs and the blobs its
// table would not pay for; flagMateHit and flagStampHit are the
// encoder's per-blob choice of region L's and region D's hit predictor
// (clear = temporal); flagVolt says the temporal candidate interpolates in
// the branch voltage (voltage.go), not in time; flagOneChunk says the blob is
// one chunk, whose count is then left out. Bits 5–7 are the order the
// temporal candidate extrapolates at (history.go; 0 = the nearest frame's
// value), 0 to MaxOrder. The decoder obeys the bits whatever its own options.
// The byte names no format revision: a blob is decoded only by the process
// that coded it, since a resumed run recomputes its store from the journal.
const (
	flagCalib    = 1 << 0
	flagMateHit  = 1 << 1
	flagStampHit = 1 << 2
	flagVolt     = 1 << 3
	flagOneChunk = 1 << 4
	orderShift   = 5
)

// Decoding errors a caller can tell apart: ErrFormat is a blob this decoder
// does not read (empty, or an order past MaxOrder); ErrReference is a blob
// coded against reference data the call does not bring — fewer frames than
// its order reads, or a voltage-family blob without the states it
// interpolates in.
var (
	ErrFormat    = errors.New("masczip: unreadable blob")
	ErrReference = errors.New("masczip: blob needs reference data the call lacks")
)

// history checks a call's frames against the pattern and returns the nearest,
// or the all-zero frame a self-contained blob is predicted from, the ones the
// codec reads past it — the MaxOrder nearest of them — and how many frames
// that is in all.
func (c *Compressor) history(cur []float64, hist compress.History) (ref []float64, far []compress.Blocks, n int, err error) {
	if len(cur) != c.plan.nnz {
		return nil, nil, 0, fmt.Errorf("masczip: value count %d does not match pattern nnz %d", len(cur), c.plan.nnz)
	}
	if hist.Near == nil {
		if len(hist.Far) > 0 {
			return nil, nil, 0, fmt.Errorf("masczip: %d reference frames past a missing nearest one", len(hist.Far))
		}
		if len(c.zeros) != c.plan.nnz {
			c.zeros = make([]float64, c.plan.nnz)
		}
		return c.zeros, nil, 0, nil
	}
	if len(hist.Near) != c.plan.nnz {
		return nil, nil, 0, fmt.Errorf("masczip: reference frame 0 holds %d values, pattern nnz is %d", len(hist.Near), c.plan.nnz)
	}
	far = hist.Far[:min(len(hist.Far), MaxOrder)]
	for i, f := range far {
		if len(f) != compress.NumBlocks(c.plan.nnz) {
			return nil, nil, 0, fmt.Errorf("masczip: reference frame %d holds %d blocks, pattern nnz %d needs %d", i+1, len(f), c.plan.nnz, compress.NumBlocks(c.plan.nnz))
		}
	}
	return hist.Near, far, 1 + len(far), nil
}

// checkStates reports the first of states that is not a state of the
// pattern's dimension.
func (c *Compressor) checkStates(states [][]float64) error {
	for i, x := range states {
		if len(x) != c.plan.pat.N {
			return fmt.Errorf("%w: state %d holds %d unknowns, the pattern has %d", ErrReference, i, len(x), c.plan.pat.N)
		}
	}
	return nil
}

// chunkEncoder resets chunk ci's persistent writer and coder for the call
// in flight.
func (c *Compressor) chunkEncoder(ci int) (*chunkCoder, *bitstream.Writer) {
	w := c.writers[ci]
	w.Reset()
	lo, hi := c.curBounds[ci], c.curBounds[ci+1]
	pl := c.plan
	if longest := max(pl.uRowPtr[hi]-pl.uRowPtr[lo], pl.lRowPtr[hi]-pl.lRowPtr[lo], pl.dRowPtr[hi]-pl.dRowPtr[lo]); len(c.ahead[ci]) < int(longest) {
		c.ahead[ci] = make([]float64, longest)
	}
	ec := &c.coders[ci]
	*ec = chunkCoder{
		plan: pl, opt: &c.opt,
		cur: c.cur, ref: c.ref,
		nhist: c.nhist, nvolt: voltFrames(c.nhist, c.states),
		order: c.order, volt: c.volt,
		rowLo: lo, rowHi: hi,
		calib: c.calib, tables: &c.tbl,
		mateHit: c.mateHit, stampHit: c.stampHit,
		counts: &c.counts[ci], stamp: c.stamp,
		ahead: c.ahead[ci], events: c.events[ci][:0],
	}
	// The stats sink is never nil: with collection off it points at the
	// coder's own discard field (zeroed by the assignment above, never
	// merged), so the per-element hot path carries no nil checks.
	copy(ec.far[:], c.far)
	copy(ec.states[:], c.states)
	ec.stats = &ec.discard
	if c.opt.CollectStats {
		ec.stats = &c.chStats[ci]
		ec.statsOn = true
	}
	return ec, w
}

// countChunk is the encoder's pre-pass over chunk ci (c.preFn).
func (c *Compressor) countChunk(ci int) {
	ec, _ := c.chunkEncoder(ci)
	c.hits[ci] = ec.countHits()
}

// voltFrames is how many of the frames the voltage family can read: those
// whose state the call brings, with the coded step's; 0 without them.
func voltFrames(nhist int, states [][]float64) int {
	if len(states) < 2 {
		return 0
	}
	return min(nhist, len(states)-1)
}

// prePass makes the blob's choices from one pass over the frame: the mate
// becomes region L's hit predictor, and the stamp region D's, where it is
// bit-exact on more of the blob's elements than the temporal prediction is; and
// symbol 0 takes the order that left the fewest significant residual bits on
// the sampled moving elements (the lowest on a tie, so 0 when nothing was
// sampled), and then the voltage family at the order that leaves fewer still
// on the voltage subset of the sample, if there is one and it holds
// voltEvidence elements. For a blob that would carry a Markov table (c.calib
// clear) it returns the selector bits the table would save under the hit
// predictors it chose (markovCounts.selectorBits); 0 for any other blob.
func (c *Compressor) prePass(nchunks int) (selBits int) {
	c.mateHit, c.stampHit, c.order, c.volt = false, false, 0, false
	if sameBits(c.cur, c.ref) {
		return 0 // nothing to choose; a frame that is its reference again (a linear circuit's) is all temporal hits
	}
	if c.opt.DisableStamp && c.nhist < 2 && c.states == nil && c.calib {
		return 0
	}
	if len(c.stamp) != len(c.plan.dSlots) {
		c.stamp = make([]float64, len(c.plan.dSlots))
	}
	workpool.Do(nchunks, c.preFn)
	var n hitCounts
	for _, h := range c.hits[:nchunks] {
		n.lTemporal += h.lTemporal
		n.lMate += h.lMate
		n.dTemporal += h.dTemporal
		n.dStamp += h.dStamp
		n.sampled += h.sampled
		n.uSel.merge(h.uSel)
		n.lSel.merge(h.lSel)
		n.lMateSel.merge(h.lMateSel)
		n.dSel.merge(h.dSel)
		n.dStampSel.merge(h.dStampSel)
		for o := range n.orderBits {
			n.orderBits[o] += h.orderBits[o]
			n.subsetBits[o] += h.subsetBits[o]
			n.voltBits[o] += h.voltBits[o]
		}
	}
	if !c.opt.DisableStamp {
		c.mateHit, c.stampHit = n.lMate > n.lTemporal, n.dStamp > n.dTemporal
	}
	if !c.calib {
		l, d := n.lSel, n.dSel
		if c.mateHit {
			l = n.lMateSel
		}
		if c.stampHit {
			d = n.dStampSel
		}
		selBits = c.cnt.selectorBits([3]selRun{n.uSel, l, d})
	}
	for o := 1; o < c.nhist; o++ {
		if n.orderBits[o] < n.orderBits[c.order] {
			c.order = o
		}
	}
	if n.sampled < voltEvidence {
		return selBits
	}
	best := n.subsetBits[c.order]
	for o := 0; o < voltFrames(c.nhist, c.states); o++ {
		if n.voltBits[o] < best {
			c.order, c.volt, best = o, true, n.voltBits[o]
		}
	}
	return selBits
}

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// encodeChunk encodes chunk ci of the call in flight into its persistent
// writer. It is c.encFn, dispatched through the workpool.
func (c *Compressor) encodeChunk(ci int) {
	ec, w := c.chunkEncoder(ci)
	ec.encodeRegions(w)
	c.events[ci] = ec.events
}

// Compress implements compress.Compressor: CompressHistory with ref as the
// one frame of history and no states.
func (c *Compressor) Compress(dst []byte, cur, ref []float64) []byte {
	return c.CompressHistory(dst, cur, compress.History{Near: ref}, nil)
}

// Decompress implements compress.Compressor: DecompressHistory with ref as
// the one frame of history and no states.
func (c *Compressor) Decompress(cur []float64, blob []byte, ref []float64) error {
	return c.DecompressHistory(cur, blob, compress.History{Near: ref}, nil)
}

// HistoryDepth implements compress.HistoryCompressor.
func (c *Compressor) HistoryDepth() int { return MaxOrder + 1 }

// CompressHistory implements compress.HistoryCompressor. Hits, the mate, the
// stamp and every candidate but symbol 0 read hist.Near alone, so a blob coded
// with one frame and no states, or at time order 0, is the blob Compress
// always wrote. states, when given, must be states of the pattern's dimension:
// the coded step's, then frame i's at 1+i.
func (c *Compressor) CompressHistory(dst []byte, cur []float64, hist compress.History, states [][]float64) []byte {
	ref, far, nhist, err := c.history(cur, hist)
	if err == nil {
		states = states[:min(len(states), nhist+1)]
		if voltFrames(nhist, states) == 0 {
			states = nil
		}
		err = c.checkStates(states)
	}
	if err != nil {
		panic(err.Error())
	}
	var sp span.Span
	if c.spanRec != nil {
		sp = c.spanRec.Start(c.spanParent, span.Encode, -1)
	}
	base := len(dst)
	// A calibration blob codes best-fit and feeds the counts the tables come
	// from. Any other Markov blob carries its table only where the table pays
	// for itself: where its misses would write fewer selector bits than the
	// table takes, it too codes best-fit, in the calibration form, whose flag
	// tells the decoder; its choices do not feed the counts.
	refresh := !c.opt.Markov || c.seq%c.opt.CalibEvery == 0
	c.seq++

	if c.encBounds == nil {
		c.encBounds = c.plan.chunkRows(c.opt.Workers)
	}
	bounds := c.encBounds
	nchunks := len(bounds) - 1

	c.ensureChunks(nchunks)
	c.cur, c.ref, c.far, c.nhist, c.states, c.calib, c.curBounds = cur, ref, far, nhist, states, refresh, bounds
	selBits := c.prePass(nchunks)
	calib := refresh || selBits < tableBits
	c.calib = calib

	dst = append(dst, byte(boolInt(calib)*flagCalib|boolInt(c.mateHit)*flagMateHit|
		boolInt(c.stampHit)*flagStampHit|boolInt(c.volt)*flagVolt|
		boolInt(nchunks == 1)*flagOneChunk|int64(c.order)<<orderShift))
	dst = binary.AppendUvarint(dst, uint64(len(cur)))
	// The chunk row boundaries travel in the header: re-deriving them from
	// the chunk count alone is not a fixed point of the partitioner when
	// boundary collisions drop segments.
	if nchunks > 1 {
		dst = binary.AppendUvarint(dst, uint64(nchunks))
	}
	for i := 1; i < nchunks; i++ {
		dst = binary.AppendUvarint(dst, uint64(bounds[i]-bounds[i-1]))
	}
	c.tbl = c.cnt.tables()
	if !calib {
		tb := c.tbl.pack()
		dst = append(dst, tb[:]...)
	}

	if refresh {
		for i := 0; i < nchunks; i++ {
			c.counts[i] = markovCounts{}
		}
	}
	if c.opt.CollectStats {
		for i := 0; i < nchunks; i++ {
			c.chStats[i] = Stats{}
		}
	}
	workpool.Do(nchunks, c.encFn)
	c.cur, c.ref, c.far, c.states = nil, nil, nil, nil
	if refresh {
		for i := 0; i < nchunks; i++ {
			c.cnt.merge(&c.counts[i])
		}
	}
	if c.opt.CollectStats {
		for i := 0; i < nchunks; i++ {
			c.stats.Merge(&c.chStats[i])
		}
		c.stats.MateBlobs += boolInt(c.mateHit)
		c.stats.StampBlobs += boolInt(c.stampHit)
		c.stats.OrderBlobs[c.order]++
		c.stats.VoltBlobs[c.order] += boolInt(c.volt)
	}
	for ci := 0; ci < nchunks; ci++ {
		dst = binary.AppendUvarint(dst, uint64(c.writers[ci].Len()))
	}
	for ci := 0; ci < nchunks; ci++ {
		dst = c.writers[ci].AppendTo(dst)
	}
	if c.spanRec != nil {
		sp.Attr("elems", int64(len(cur)))
		sp.Attr("bytes", int64(len(dst)-base))
		sp.Attr("calib", boolInt(calib))
		sp.End()
	}
	return dst
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// chunkDecoder points chunk ci's persistent reader at its payload and resets
// its coder for the call in flight.
func (c *Compressor) chunkDecoder(ci int) (*chunkCoder, *bitstream.Reader) {
	r := c.readers[ci]
	r.Reset(c.blob[c.starts[ci] : c.starts[ci]+c.lens[ci]])
	dc := &c.coders[ci]
	*dc = chunkCoder{
		plan: c.plan, opt: &c.opt,
		cur: c.cur, ref: c.ref,
		nhist: c.nhist, order: c.order, volt: c.volt,
		rowLo: c.decBounds[ci], rowHi: c.decBounds[ci+1],
		calib: c.calib, tables: &c.tbl,
		mateHit: c.mateHit, stampHit: c.stampHit,
		lutBuf: &c.luts[ci],
	}
	copy(dc.far[:], c.far)
	copy(dc.states[:], c.states)
	return dc, r
}

// decodeChunk decodes chunk ci of the call in flight; a bad length field or
// an overrun stays in the chunk's coder for Decompress to report. It is
// c.decFn, dispatched through the workpool.
func (c *Compressor) decodeChunk(ci int) {
	dc, r := c.chunkDecoder(ci)
	if dc.err = dc.decodeRegions(r); dc.err == nil {
		dc.err = r.Err()
	}
}

// header reads the blob's flags byte and checks it against what the call
// brings: nhist frames and states. It returns the blob's order and family.
func (c *Compressor) header(blob []byte, nhist int, states [][]float64) (order int, volt bool, err error) {
	if len(blob) < 1 {
		return 0, false, fmt.Errorf("%w: empty blob", ErrFormat)
	}
	flags := blob[0]
	order, volt = int(flags>>orderShift), flags&flagVolt != 0
	if order > MaxOrder {
		return 0, false, fmt.Errorf("%w: flags byte %#02x names order %d, the format's highest is %d", ErrFormat, flags, order, MaxOrder)
	}
	if order > 0 && order >= nhist {
		return 0, false, fmt.Errorf("%w: flags byte %#02x: an order-%d blob reads %d reference frames, %d given", ErrReference, flags, order, order+1, nhist)
	}
	if volt {
		if len(states) < order+2 {
			return 0, false, fmt.Errorf("%w: flags byte %#02x: a voltage-family order-%d blob reads %d states, %d given", ErrReference, flags, order, order+2, len(states))
		}
		if err := c.checkStates(states[:order+2]); err != nil {
			return 0, false, fmt.Errorf("flags byte %#02x: %w", flags, err)
		}
	}
	return order, volt, nil
}

// DecompressHistory implements compress.HistoryCompressor. hist must open
// with the frames the blob was coded against, and states with the states it
// was coded with; the blob's order and family say how many of each it reads.
func (c *Compressor) DecompressHistory(cur []float64, blob []byte, hist compress.History, states [][]float64) error {
	if c.spanRec != nil {
		sp := c.spanRec.Start(c.spanParent, span.Decode, -1)
		sp.Attr("elems", int64(len(cur)))
		sp.Attr("bytes", int64(len(blob)))
		defer sp.End()
	}
	ref, far, nhist, err := c.history(cur, hist)
	if err != nil {
		return err
	}
	order, volt, err := c.header(blob, nhist, states)
	if err != nil {
		return err
	}
	if !volt {
		states = nil
	}
	flags, off := blob[0], 1
	n, k := binary.Uvarint(blob[off:])
	if k <= 0 {
		return fmt.Errorf("masczip: bad element count")
	}
	off += k
	if n != uint64(len(cur)) {
		return fmt.Errorf("masczip: blob holds %d elements, want %d", n, len(cur))
	}
	nchunks64 := uint64(1)
	if flags&flagOneChunk == 0 {
		if nchunks64, k = binary.Uvarint(blob[off:]); k <= 0 {
			return fmt.Errorf("masczip: bad chunk count")
		}
		off += k
	}
	if nchunks64 < 1 || nchunks64 > uint64(c.plan.pat.N) {
		return fmt.Errorf("masczip: implausible chunk count %d", nchunks64)
	}
	nchunks := int(nchunks64)
	if cap(c.decBounds) < nchunks+1 {
		c.decBounds = make([]int32, nchunks+1)
	}
	bounds := c.decBounds[:nchunks+1]
	bounds[0] = 0
	for i := 1; i < nchunks; i++ {
		d, k := binary.Uvarint(blob[off:])
		if k <= 0 {
			return fmt.Errorf("masczip: truncated chunk boundary %d", i)
		}
		off += k
		// Bound the delta before the int32 conversion: an adversarial
		// uvarint can exceed 2^31 and wrap negative, sneaking past the
		// monotonicity check below.
		if d == 0 || d > uint64(c.plan.pat.N) {
			return fmt.Errorf("masczip: implausible chunk boundary delta %d", d)
		}
		bounds[i] = bounds[i-1] + int32(d)
		if bounds[i] <= bounds[i-1] || bounds[i] >= int32(c.plan.pat.N) {
			return fmt.Errorf("masczip: invalid chunk boundary %d", bounds[i])
		}
	}
	bounds[nchunks] = int32(c.plan.pat.N)
	calib := flags&flagCalib != 0
	var tables markovTables
	if !calib {
		if len(blob) < off+3 {
			return fmt.Errorf("masczip: truncated markov table")
		}
		tables = unpackTables([3]byte{blob[off], blob[off+1], blob[off+2]})
		off += 3
	}
	if cap(c.lens) < nchunks {
		c.lens = make([]int, nchunks)
		c.starts = make([]int, nchunks)
	}
	lens := c.lens[:nchunks]
	starts := c.starts[:nchunks]
	for i := range lens {
		l, k := binary.Uvarint(blob[off:])
		if k <= 0 {
			return fmt.Errorf("masczip: bad chunk length %d", i)
		}
		off += k
		if l > uint64(len(blob)) {
			return fmt.Errorf("masczip: chunk %d length %d exceeds blob", i, l)
		}
		lens[i] = int(l)
	}
	for i := range lens {
		starts[i] = off
		off += lens[i]
		// Check inside the loop: the summed lengths of many maximal
		// chunks could overflow off if left unchecked until the end.
		if off > len(blob) {
			return fmt.Errorf("masczip: truncated payload")
		}
	}
	c.ensureChunks(nchunks)
	c.cur, c.ref, c.far, c.nhist, c.states, c.calib, c.tbl, c.blob = cur, ref, far, nhist, states, calib, tables, blob
	c.mateHit, c.stampHit, c.order, c.volt = flags&flagMateHit != 0, flags&flagStampHit != 0, order, volt
	workpool.Do(nchunks, c.decFn)
	c.cur, c.ref, c.far, c.states, c.blob = nil, nil, nil, nil, nil
	for ci := 0; ci < nchunks; ci++ {
		if err := c.coders[ci].err; err != nil {
			return fmt.Errorf("masczip: chunk %d: %w", ci, err)
		}
	}
	return nil
}

// chunkCoder encodes or decodes the rows [rowLo, rowHi) of one matrix.
type chunkCoder struct {
	// far is the frames past ref of the nhist the call was given (ref is
	// frame 0); the coder reads ref and far[:order]. An array in the coder,
	// and first in it: temporal ran a third slower with the headers behind a
	// slice or mid-struct.
	far    [MaxOrder]compress.Blocks
	plan   *plan
	opt    *Options
	cur    []float64 // encoder: input; decoder: output
	ref    []float64
	nhist  int
	order  int
	volt   bool                    // symbol 0 interpolates in the branch voltage over states (voltage.go)
	states [MaxOrder + 2][]float64 // the coded step's state, then frame i's at 1+i
	nvolt  int                     // encoder only: the frames the voltage family can read (voltFrames)
	rowLo  int32
	rowHi  int32
	calib  bool
	tables *markovTables
	counts *markovCounts // calibration output (encoder only)

	mateHit, stampHit bool      // the blob's hit predictors for regions L and D
	stamp             []float64 // encoder only: stampD per packed diagonal, filled by countHits
	err               error     // decoder only: what stopped decodeRegions

	// Encoder only: the region being decided — its events (a per-chunk
	// scratch the Compressor keeps across calls), the prefix gathered since
	// the last of them (put) and the code of its lengths.
	events  []event
	pre     uint64
	preN    uint8
	lengths lengthCode

	// Decoder only: the chunk's length decode table scratch, kept by the
	// Compressor across calls (readLengthTable).
	lutBuf *[]uint16

	// Encoder only: the predictions of the misses a miss run covers, found
	// before its count is written (missRunAhead), and the candidates of the
	// miss that ended it, at position at − 1 (0: none).
	ahead []float64
	next  struct {
		at    int32
		n     int
		cands [4]float64
	}

	// stats is never nil: it points at chStats when collection is on and at
	// discard otherwise, so the hot loops increment unconditionally instead
	// of branching per element. statsOn guards only the counters whose
	// computation itself costs something (the Markov exactness probe).
	stats   *Stats
	statsOn bool
	discard Stats
}

// first is selector symbol 0 for off-diagonal slot k: the blob's family at its
// order.
func (cc *chunkCoder) first(k int32) float64 {
	if cc.volt {
		return cc.voltage(k)
	}
	return cc.temporal(k)
}

// firstD is selector symbol 0 for packed diagonal k.
func (cc *chunkCoder) firstD(k int32) float64 {
	if cc.volt {
		return cc.voltageD(k)
	}
	return cc.temporal(cc.plan.dSlots[k])
}

// fill completes a candidate array from its spatial half: out[0] is symbol 0,
// first, and so is every symbol of the fallback mask (bit s for symbol s),
// which had no spatial prediction of its own.
func fill(fallback uint8, first float64, out *[4]float64) {
	out[0] = first
	for s := 1; s < len(out); s++ {
		if fallback>>s&1 != 0 {
			out[s] = first
		}
	}
}

// candsU computes the region-U candidate predictions for slot k.
func (cc *chunkCoder) candsU(k int32, out *[4]float64) int {
	fill(cc.spatialU(k, out), cc.first(k), out)
	return uSyms
}

// spatialU fills out[1..3] with slot k's region-U spatial candidates and
// returns the mask of those that fall back to symbol 0.
func (cc *chunkCoder) spatialU(k int32, out *[4]float64) (fallback uint8) {
	if cc.opt.DisableStamp {
		return 0b1110
	}
	pl := cc.plan
	ref := cc.ref
	if t := pl.tr[k]; t >= 0 {
		out[1] = ref[t]
	} else {
		fallback |= 1 << 1
	}
	if d := pl.diag[pl.rowOf[k]]; d >= 0 {
		out[2] = -ref[d]
	} else {
		fallback |= 1 << 2
	}
	if d := pl.diag[pl.pat.ColIdx[k]]; d >= 0 {
		out[3] = -ref[d]
	} else {
		fallback |= 1 << 3
	}
	return fallback
}

// mate is region L's mate prediction for slot k: the current value of the
// symmetric entry, which lives in region U of row ColIdx[k] — above k's own
// row, so decoded before region L if this chunk starts at or above it — and
// the temporal value otherwise.
func (cc *chunkCoder) mate(k int32) float64 {
	if t := cc.plan.tr[k]; t >= 0 && cc.plan.pat.ColIdx[k] >= cc.rowLo {
		return cc.cur[t]
	}
	return cc.ref[k]
}

// candsL computes the region-L candidates for position k of lSlots.
func (cc *chunkCoder) candsL(k int32, out *[4]float64) int {
	fill(cc.spatialL(k, out), cc.first(cc.plan.lSlots[k]), out)
	return lSyms
}

// spatialL fills out[1..3] with the region-L spatial candidates for position k
// of lSlots and returns the mask of those that fall back to symbol 0. The
// last-value candidate is the value coded just before in the same row, which
// is the previous position of the flat region when that slot shares the row.
func (cc *chunkCoder) spatialL(k int32, out *[4]float64) (fallback uint8) {
	pl := cc.plan
	ref := cc.ref
	slot := pl.lSlots[k]
	row := pl.rowOf[slot]
	if cc.opt.DisableStamp {
		fallback = 0b0110
	} else {
		switch t := pl.tr[slot]; {
		case t < 0:
			fallback |= 1 << 1
		case pl.pat.ColIdx[slot] >= cc.rowLo: // the mate's row is in this chunk
			out[1] = cc.cur[t]
		default:
			out[1] = ref[t]
		}
		if d := pl.diag[row]; d >= 0 {
			out[2] = -ref[d]
		} else {
			fallback |= 1 << 2
		}
	}
	if !cc.opt.DisableLastValue && k > pl.lRowPtr[row] {
		out[3] = cc.cur[pl.lSlots[k-1]]
	} else {
		fallback |= 1 << 3
	}
	return fallback
}

// stampD is the spatiotemporal stamp prediction for packed diagonal k:
// ref[d] − (Σcur − Σref) over the row's off-diagonal slots. A pair stamp puts
// +c on the diagonal and −c beside it, so a row's sum is the node's grounded
// capacitance: rarely zero (which the value form −Σcur needs) but constant
// while the grounded elements are linear, which is all the difference form
// needs — the diagonal moves by minus what the decoded off-diagonals moved by.
// Written −((Σcur − Σref) − ref[d]) so that an all-zero reference gives exactly
// −Σcur, the sign of a zero sum included. Sums, differences and a negation
// only: with no multiplication there is nothing for a compiler to contract
// into an FMA, so encoder and decoder round alike on every architecture.
func (cc *chunkCoder) stampD(k int32) float64 {
	pl := cc.plan
	cur, ref := cc.cur, cc.ref
	row, d := pl.dRows[k], pl.dSlots[k]
	sumCur, sumRef := 0.0, 0.0
	for s := pl.pat.RowPtr[row]; s < d; s++ {
		sumCur += cur[s]
		sumRef += ref[s]
	}
	for s := d + 1; s < pl.pat.RowPtr[row+1]; s++ {
		sumCur += cur[s]
		sumRef += ref[s]
	}
	return -((sumCur - sumRef) - ref[d])
}

// stampAt is stampD for packed diagonal k: read from the pre-pass's cache on
// the encode side, so coding a blob sums each row once.
func (cc *chunkCoder) stampAt(k int32) float64 {
	if cc.stamp != nil {
		return cc.stamp[k]
	}
	return cc.stampD(k)
}

// candsD computes the region-D candidates for packed diagonal k: symbol 0 and
// the stamp.
func (cc *chunkCoder) candsD(k int32, out *[4]float64) int {
	fill(cc.spatialD(k, out), cc.firstD(k), out)
	return dSyms
}

// spatialD fills out[1] with packed diagonal k's stamp, and returns the mask of
// the candidates that fall back to symbol 0.
func (cc *chunkCoder) spatialD(k int32, out *[4]float64) (fallback uint8) {
	if cc.opt.DisableStamp {
		return 1 << 1
	}
	out[1] = cc.stampAt(k)
	return 0
}

// hitCounts is what the encoder's pre-pass finds in one chunk: how many of
// region L's and region D's elements each candidate hit predictor reproduces
// bit for bit, what symbol 0 would leave to code in each family at each
// order — significant residual bits over the sampled misses — and, in a blob
// that would carry a Markov table, what the table would save.
type hitCounts struct {
	lTemporal, lMate, dTemporal, dStamp int
	orderBits                           [MaxOrder + 1]int64 // time, over the sample
	sampled                             int                 // the sample's voltage subset: its elements,
	subsetBits, voltBits                [MaxOrder + 1]int64 // and what time and the voltage leave on them
	// The misses an explicit-form blob writes a selector for (selRun), under
	// each hit predictor: U's temporal, L's temporal and mate, D's temporal
	// and stamp.
	uSel, lSel, lMateSel, dSel, dStampSel selRun
}

// selRun counts, along one region's slots, the misses, and of them the first
// missRun of each run of misses: those carry a selector in an explicit-form
// blob whatever their symbols, the rest only where the symbol changes, the
// run's count covering the others.
type selRun struct{ run, miss, sel int }

func (s *selRun) add(hit bool) {
	if hit {
		s.run = 0
		return
	}
	s.miss++
	if s.run++; s.run <= missRun {
		s.sel++
	}
}

func (s *selRun) merge(o selRun) { s.miss, s.sel = s.miss+o.miss, s.sel+o.sel }

// countHits is the pre-pass over this chunk. It first fills cc.stamp, which
// the voltage family's sample, the region-D scan and candsD then read instead
// of summing rows again. The selectors are counted only in a blob that would
// carry a Markov table (calib clear): they are needed only to price it.
func (cc *chunkCoder) countHits() hitCounts {
	pl := cc.plan
	cur, ref := cc.cur, cc.ref
	var n hitCounts
	dLo, dHi := pl.dRowPtr[cc.rowLo], pl.dRowPtr[cc.rowHi]
	stamp, price := !cc.opt.DisableStamp, !cc.calib
	if stamp || cc.nvolt > 0 {
		for k := dLo; k < dHi; k++ {
			cc.stamp[k] = cc.stampD(k)
		}
	}
	cc.sampleOrders(&n)
	if !stamp && !price {
		return n
	}
	if price {
		for _, slot := range pl.uSlots[pl.uRowPtr[cc.rowLo]:pl.uRowPtr[cc.rowHi]] {
			n.uSel.add(math.Float64bits(cur[slot]) == math.Float64bits(ref[slot]))
		}
	}
	for _, slot := range pl.lSlots[pl.lRowPtr[cc.rowLo]:pl.lRowPtr[cc.rowHi]] {
		v := math.Float64bits(cur[slot])
		temporal := v == math.Float64bits(ref[slot])
		mate := stamp && v == math.Float64bits(cc.mate(slot))
		n.lTemporal += int(boolInt(temporal))
		n.lMate += int(boolInt(mate))
		if price {
			n.lSel.add(temporal)
			n.lMateSel.add(mate)
		}
	}
	for k := dLo; k < dHi; k++ {
		v := math.Float64bits(cur[pl.dSlots[k]])
		temporal := v == math.Float64bits(ref[pl.dSlots[k]])
		st := stamp && v == math.Float64bits(cc.stamp[k])
		n.dTemporal += int(boolInt(temporal))
		n.dStamp += int(boolInt(st))
		if price {
			n.dSel.add(temporal)
			n.dStampSel.add(st)
		}
	}
	return n
}

// bestSym picks the candidate closest to val (bit-exact match wins
// immediately; ties prefer the lowest symbol).
//
// The bit-pattern pass runs first so the common case — some candidate
// reproduces val exactly — costs n integer compares with val's bits hoisted
// out of the loop. The distance pass needs no explicit NaN guard: a NaN
// distance compares false against bestDist, which is exactly the "treat as
// infinitely far" behavior, and when every distance is NaN the initial
// best=0 matches the old fallback. The distance is the values', not the
// ordered integers' the residual codes: within a binade the two agree, and
// across zero the values' makes +0 and −0 tie, so a self-contained blob —
// predicted from zeros — calibrates the Markov tables to symbol 0, not to
// whichever zero is one unit in the last place nearer.
func bestSym(val float64, cands *[4]float64, n int) uint8 {
	vb := math.Float64bits(val)
	for s := 0; s < n; s++ {
		if math.Float64bits(cands[s]) == vb {
			return uint8(s)
		}
	}
	best := 0
	bestDist := math.Inf(1)
	for s := 0; s < n; s++ {
		if d := math.Abs(cands[s] - val); d < bestDist {
			bestDist = d
			best = s
		}
	}
	return uint8(best)
}

type region int

const (
	regionU region = iota
	regionL
	regionD
)

func (rg region) String() string { return [...]string{"U", "L", "D"}[rg] }

// note maps n selections of a selector symbol to the paper's three model
// families for the Figure-6 statistics. It is called only for misses, which
// went through model selection (the hits are tallied in encodeRun).
func (cc *chunkCoder) note(sym uint8, rg region, n int64) {
	cc.stats.Elements += n
	cc.stats.SelectorElements += n
	switch rg {
	case regionU, regionD:
		if sym == 0 {
			cc.stats.Temporal += n
		} else {
			cc.stats.Stamp += n
		}
	case regionL:
		switch sym {
		case 0:
			cc.stats.Temporal += n
		case 3:
			cc.stats.LastValue += n
		default:
			cc.stats.Stamp += n
		}
	}
}
