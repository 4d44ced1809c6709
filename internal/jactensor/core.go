package jactensor

// What the stores share. storeBase is the part every store has — the Put
// contract, the stats with the resident meter, the corruption count and the
// attachment. core is what the blob-holding store, CompressedStore, is built
// on: one record per step, the arena, the frame pool and the one path a step
// takes from plaintext to a sealed blob and back. core owns data and
// transitions only. It has no lock — the store calls it under its own — and
// it decides nothing: what is kept is the store's and its budget's call.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/diskio"
	"masc/internal/faultinject"
	"masc/internal/obs"
	"masc/internal/obs/span"
)

// Attachment is everything a run wires into its store: telemetry, the
// fallback parent of store-side spans (normally the run root span; the
// forward loop's step span takes precedence while one is published), a fault
// injector, the context the spill device's retry sleeps abort on, and the
// states the steps were produced at. The zero value attaches nothing. Attach
// it once, before the first Put.
type Attachment struct {
	Obs   *obs.Observer
	Scope span.ID
	Fault *faultinject.Injector
	Ctx   context.Context
	// State, if non-nil, returns the simulation state step was produced at:
	// an array the caller keeps unchanged until the store is closed, which the
	// chain store references — never copies — beside the step and hands to a
	// history codec with the frames (compress.HistoryCompressor). It is called
	// only inside Put, on the caller's goroutine, for the step being put.
	State func(step int) []float64
}

// storeBase is the state and bookkeeping that do not depend on what a store
// keeps or where.
type storeBase struct {
	stats       Stats
	resident    int64
	jLen, cLen  int   // per-step value counts, fixed by step 0
	frameBytes  int64 // 8*(jLen+cLen)
	forwardDone bool
	fault       *faultinject.Injector // nil = fault-free
	ctx         context.Context
	state       func(step int) []float64 // Attachment.State; nil = none
	ob          storeObs                 // telemetry handles; zero value = disabled
}

// attach resolves a into the store's handles; kind labels the metric series
// (memory, disk, compressed).
func (b *storeBase) attach(a Attachment, kind string) {
	b.ob = newStoreObs(a.Obs, kind)
	b.ob.scope = a.Scope
	b.fault = a.Fault
	b.ctx = a.Ctx
	b.state = a.State
}

// stateOf is the state the attachment gives for step, nil without one.
func (b *storeBase) stateOf(step int) []float64 {
	if b.state == nil {
		return nil
	}
	return b.state(step)
}

// wireSpill hands a spill device the attachment's share: op faults, the
// retry spans' recorder and parent, and the context its backoff watches.
func (b *storeBase) wireSpill(sp *diskio.Store) {
	sp.SetFault(b.fault)
	sp.SetSpans(b.ob.rec, b.ob.scope)
	if b.ctx != nil {
		sp.SetContext(b.ctx)
	}
}

// admit is the Put contract, checked here for every store: steps arrive in
// order from 0, never after EndForward, and always with step 0's value
// counts. A violation is the caller's bug, not a storage fault — typed,
// naming the step, and not degradable, so it aborts the forward pass instead
// of surfacing later as a corrupt record. An admitted step is counted.
func (b *storeBase) admit(step int, jVals, cVals []float64) error {
	var why string
	switch {
	case b.forwardDone:
		why = "Put after EndForward"
	case step != b.stats.Steps:
		why = fmt.Sprintf("out of order (expected step %d)", b.stats.Steps)
	case step > 0 && (len(jVals) != b.jLen || len(cVals) != b.cLen):
		why = fmt.Sprintf("value counts changed (%d/%d, step 0 had %d/%d)", len(jVals), len(cVals), b.jLen, b.cLen)
	}
	if why != "" {
		return &StepError{Step: step, Op: "put", Err: errors.New(why)}
	}
	if step == 0 {
		b.jLen, b.cLen = len(jVals), len(cVals)
		b.frameBytes = int64(8 * (b.jLen + b.cLen))
	}
	b.stats.Steps++
	b.stats.RawBytes += b.frameBytes
	b.ob.puts.Inc()
	b.ob.rawBytes.Add(float64(b.frameBytes))
	return nil
}

// bumpResident moves the modelled resident bytes and their running peak —
// one meter, so PeakResident is comparable across the strategies.
func (b *storeBase) bumpResident(delta int64) {
	b.resident += delta
	if b.resident > b.stats.PeakResident {
		b.stats.PeakResident = b.resident
	}
	b.ob.observeResident(b.resident)
}

// noteCorrupt counts one failed integrity check.
func (b *storeBase) noteCorrupt() {
	b.stats.CorruptBlobs++
	b.ob.corrupt.Inc()
}

var errQuarantined = errors.New("step is quarantined")

// pair is one step's plaintext: the first tensor's values and the second's.
type pair struct{ j, c []float64 }

// frame is a plaintext pair at rest, with the CRC32C sidecars taken when it
// came to rest: bit rot between then and the next read is detected instead
// of flowing into the sensitivities.
type frame struct {
	pair
	jSum, cSum uint32
}

// rest makes p the frame's plaintext and records its sidecars.
func (f *frame) rest(p pair) {
	f.pair = p
	f.jSum, f.cSum = blobframe.ChecksumFloat64(p.j), blobframe.ChecksumFloat64(p.c)
}

// rotted checks the plaintext against its sidecars; a mismatch names the
// tensor.
func (f *frame) rotted() (tensor string, err error) { return checkSums(f.pair, f.jSum, f.cSum) }

// checkSums checks p against the sidecars jSum, cSum; a mismatch names the
// tensor.
func checkSums(p pair, jSum, cSum uint32) (tensor string, err error) {
	if got := blobframe.ChecksumFloat64(p.j); got != jSum {
		return "J", fmt.Errorf("checksum %#08x, want %#08x", got, jSum)
	}
	if got := blobframe.ChecksumFloat64(p.c); got != cSum {
		return "C", fmt.Errorf("checksum %#08x, want %#08x", got, cSum)
	}
	return "", nil
}

// heldFrame is one step's plaintext in the chain's window: put and not yet
// sealed, or fetched by a sweep — and, once the sweep released it, kept while a
// step below still decodes against it. Each tensor is held flat or in blocks
// (held), and its arrays may be the neighbouring step's (core.hold).
type heldFrame struct {
	t    [2]held // the first tensor, the second
	lent bool    // fetched and not yet released: the sweep reads the flat arrays
}

// held is one tensor of a window frame: one flat array, or the index of its
// blocks of compress.BlockLen values. The codec scans the coded step and its
// nearest reference element by element, so those two are flat; the frames
// past the nearest are read only at misses and sampled slots, so they hold
// the blocks they changed and share the rest with the frame beside them.
// The zero value holds nothing.
type held struct {
	flat []float64       // nil when blocked
	blk  compress.Blocks // nil when flat
}

func (h held) ok() bool { return h.flat != nil || h.blk != nil }

// resident reports whether the window holds f's values.
func (f *heldFrame) resident() bool { return f.t[0].ok() }

// flatPair is f's flat arrays: nil where a tensor is held in blocks.
func (f *heldFrame) flatPair() pair { return pair{f.t[0].flat, f.t[1].flat} }

// flatFrame is a window frame holding p's arrays flat.
func flatFrame(p pair) heldFrame { return heldFrame{t: [2]held{{flat: p.j}, {flat: p.c}}} }

// stepRec is everything the chain knows about one step: its blobs in the
// arena, a frame on its anchors, its place in the history window.
type stepRec struct {
	frame                  // checksummed plaintext at rest: an anchor; the head's sidecars alone
	heldFrame              // the step's place in the history window
	x            []float64 // the state the step was produced at (Attachment.State) — the caller's array, not counted as resident
	jBlob, cBlob []byte    // sealed blobs in the arena; nil for the head and a dropped step
	jbN, cbN     int       // sealed lengths
	pinned       bool      // anchor: the chain cuts here
	quarantined  bool      // failed verification: unreadable until Repair
}

// spanCodec is implemented by codecs (masczip) that can record encode/decode
// spans under a per-call parent. A store serializes the calls of one codec
// pair, so setting the parent between calls is race-free.
type spanCodec interface {
	SetSpans(*span.Recorder)
	SetSpanParent(span.ID)
}

// history is the reference frames of one seal or decode, per tensor, and the
// states both tensors' codecs may read beside them: the coded step's, then
// each frame's (compress.HistoryCompressor), nil when the run attached none.
// The zero value is none: a self-contained blob.
type history struct {
	j, c compress.History
	x    [][]float64
}

// codecs is a first-tensor/second-tensor compressor pair with the optional
// capabilities the stores use. A StoreSlice decodes with a forked pair, which
// is why the decode half of the blob path hangs off this type and not core.
type codecs struct {
	j, c         compress.Compressor
	spanJ, spanC spanCodec // nil unless the codecs trace and spans are on
	// depth is how many frames above a step the chain holds for it: the
	// deeper codec's history depth, 1 for a pair of one-reference codecs.
	depth int
	win   window // gather's scratch, so a steady-state seal or decode allocates nothing
}

// window is gather's scratch: the frames of one call, nearest first, which of
// them stay flat, and per tensor the history handed to the codec, with views
// of the flat frames past the nearest and the copies of their short last
// blocks.
type window struct {
	frames []*heldFrame
	keep   [][2]bool
	far    [2][]compress.Blocks
	views  [2][]compress.Blocks
	tails  [2][][compress.BlockLen]float64
	x      [][]float64
}

func newCodecs(j, c compress.Compressor) codecs {
	depth := max(compress.HistoryDepth(j), compress.HistoryDepth(c))
	w := window{frames: make([]*heldFrame, 0, depth), keep: make([][2]bool, depth), x: make([][]float64, 0, depth+1)}
	for i := range w.far {
		w.far[i] = make([]compress.Blocks, 0, depth)
		w.views[i] = make([]compress.Blocks, depth)
		w.tails[i] = make([][compress.BlockLen]float64, depth)
	}
	return codecs{j: j, c: c, depth: depth, win: w}
}

// trace wires the codecs to rec, so each compress/decompress span encloses
// the codec's own encode/decode span.
func (cd *codecs) trace(rec *span.Recorder) {
	if rec == nil {
		return
	}
	if sc, ok := cd.j.(spanCodec); ok {
		sc.SetSpans(rec)
		cd.spanJ = sc
	}
	if sc, ok := cd.c.(spanCodec); ok {
		sc.SetSpans(rec)
		cd.spanC = sc
	}
}

// setParent points the codecs' next encode/decode span at id.
func (cd *codecs) setParent(id span.ID) {
	if cd.spanJ != nil {
		cd.spanJ.SetSpanParent(id)
	}
	if cd.spanC != nil {
		cd.spanC.SetSpanParent(id)
	}
}

// restart cuts the codecs' cross-call prediction state (Markov counts,
// calibration phase), so an anchor's blob round-trips on its own. Codecs
// without the capability still get a value-chain cut from a nil reference.
func (cd *codecs) restart() {
	type restarter interface{ Restart() }
	if r, ok := cd.j.(restarter); ok {
		r.Restart()
	}
	if r, ok := cd.c.(restarter); ok {
		r.Restart()
	}
}

// decode inflates verified payloads into p against the history they were
// sealed against; a tensor whose array is nil — a repeat, which has no
// payload to decode — is skipped. A failure names the tensor.
func (cd *codecs) decode(p pair, jp, cp []byte, h history) (tensor string, err error) {
	if p.j != nil {
		if err := compress.Decode(cd.j, p.j, jp, h.j, h.x); err != nil {
			return "J", err
		}
	}
	if p.c != nil {
		if err := compress.Decode(cd.c, p.c, cp, h.c, h.x); err != nil {
			return "C", err
		}
	}
	return "", nil
}

// crcLen is the integrity field an arena blob starts with: the CRC32C of the
// tensor's tag ('J', 'C'), the step (u32, little-endian) and the payload. It
// is all the blob carries beside its payload — the step record already knows
// the step, the tensor and the length — and it still catches what a file
// frame's header does: a flipped bit anywhere, a short blob, and a blob read
// as another tensor's or another step's.
const crcLen = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blobCRC is the CRC32C of (tensor, step, payload).
func blobCRC(tensor byte, step int, payload []byte) uint32 {
	var tag [5]byte
	tag[0] = tensor
	binary.LittleEndian.PutUint32(tag[1:], uint32(step))
	return crc32.Update(crc32.Update(0, castagnoli, tag[:]), castagnoli, payload)
}

// openBlob verifies an arena blob as tensor step's and returns its payload,
// aliasing blob.
func openBlob(blob []byte, tensor byte, step int) ([]byte, error) {
	if len(blob) < crcLen {
		return nil, fmt.Errorf("blob of %d bytes is shorter than its %d-byte CRC", len(blob), crcLen)
	}
	payload := blob[crcLen:]
	if got, want := blobCRC(tensor, step, payload), binary.LittleEndian.Uint32(blob); got != want {
		return nil, fmt.Errorf("CRC32C %#08x, want %#08x", got, want)
	}
	return payload, nil
}

// openPair verifies a step's sealed blobs and returns their payloads; a
// failure names the tensor.
func openPair(step int, jb, cb []byte) (jp, cp []byte, tensor string, err error) {
	if jp, err = openBlob(jb, 'J', step); err != nil {
		return nil, nil, "J", err
	}
	if cp, err = openBlob(cb, 'C', step); err != nil {
		return nil, nil, "C", err
	}
	return jp, cp, "", nil
}

// isRepeat reports whether a sealed blob is a repeat's: no payload beside
// its CRC, and a nearest frame to repeat. A codec's payload is never empty.
func isRepeat(blob []byte, near []float64) bool { return len(blob) == crcLen && near != nil }

// poolFrames caps the frame pool. A Put/compress or fetch/Release cycle keeps
// a frame or two waiting (plus the prefetch's and a short queue's); without a
// cap the pool would grow to the window's high-water mark and keep it. The
// blocks wait in a pool of one frame's worth, the block indices in one of a
// window's.
const poolFrames = 4

// core is the body of the blob-holding store.
type core struct {
	storeBase
	cd    codecs
	steps []*stepRec

	// Sealed blobs are slices into the arena, not heap objects: off the Go
	// heap on unix, so the GC pacer sizes its headroom on the plaintext
	// working set alone (DESIGN.md, "Modelled vs real memory"). frameJ/frameC
	// are the scratch frames seal compresses into; only one seal runs at a
	// time per store.
	arena          blobArena
	frameJ, frameC []byte

	// The pools recycle plaintext arrays, one per tensor, so a steady-state
	// Put or Fetch allocates nothing; the chain's also recycle its blocks and
	// the tensors' block indices. Pooled arrays are idle memory the resident
	// model does not count; an array counts from the moment its holder bumps
	// the model to the matching release.
	poolJ, poolC [][]float64
	poolB        []*[compress.BlockLen]float64
	poolIdx      [2][]compress.Blocks
	// shared lists the arrays — flat frames and blocks — more than one frame
	// of the chain's window holds, with their holder counts (hold, letGo).
	shared map[*float64]int
}

func newCore(jc, cc compress.Compressor) core {
	return core{
		cd:     newCodecs(jc, cc),
		arena:  blobArena{src: defaultChunks()},
		frameJ: make([]byte, crcLen),
		frameC: make([]byte, crcLen),
	}
}

// takeVals returns an array of n values, pooled if one waits.
func takeVals(pool *[][]float64, n int) []float64 {
	if m := len(*pool); m > 0 {
		v := (*pool)[m-1]
		*pool = (*pool)[:m-1]
		return v
	}
	return make([]float64, n)
}

// parkVals puts an idle array back in its pool, or lets it go when the pool
// is full.
func (k *core) parkVals(pool *[][]float64, v []float64) {
	if len(*pool) < poolFrames {
		*pool = append(*pool, v)
	}
}

// takeFrame returns a frame of the store's value counts.
func (k *core) takeFrame() pair {
	return pair{takeVals(&k.poolJ, k.jLen), takeVals(&k.poolC, k.cLen)}
}

// copyFrame returns a pooled frame holding a copy of src.
func (k *core) copyFrame(src pair) pair {
	p := k.takeFrame()
	copy(p.j, src.j)
	copy(p.c, src.c)
	return p
}

// parkFrame puts an idle frame nothing else holds back in the pools.
func (k *core) parkFrame(p pair) {
	if p.j != nil {
		k.parkVals(&k.poolJ, p.j)
	}
	if p.c != nil {
		k.parkVals(&k.poolC, p.c)
	}
}

// sameBits reports whether two value arrays are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if sameArray(a, b) {
		return true
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hold gives v — a flat array or a block — one more holder. The chain lets
// consecutive steps whose values for a block are bit-identical hold one block,
// and consecutive flat frames that are bit-identical throughout hold one
// array, so a tensor that does not move — a linear circuit's — costs its
// history window one frame, not depth+1.
func (k *core) hold(v []float64) {
	if len(v) == 0 {
		return
	}
	if k.shared == nil {
		k.shared = map[*float64]int{}
	}
	k.shared[&v[0]] = max(k.shared[&v[0]], 1) + 1
}

// letGo ends one holder's use of v and reports whether it was the last, in
// which case the array is the caller's to uncount and park.
func (k *core) letGo(v []float64) bool {
	if len(v) == 0 {
		return true
	}
	n, ok := k.shared[&v[0]]
	switch {
	case !ok:
		return true
	case n == 2:
		delete(k.shared, &v[0])
	default:
		k.shared[&v[0]] = n - 1
	}
	return false
}

// flatPool is tensor i's pool of flat arrays.
func (k *core) flatPool(i int) *[][]float64 {
	if i == 0 {
		return &k.poolJ
	}
	return &k.poolC
}

// tensorLen is tensor i's value count.
func (k *core) tensorLen(i int) int {
	if i == 0 {
		return k.jLen
	}
	return k.cLen
}

// flatOf returns a counted flat array of tensor i holding src's values.
func (k *core) flatOf(i int, src held) []float64 {
	v := takeVals(k.flatPool(i), k.tensorLen(i))
	if src.flat != nil {
		copy(v, src.flat)
	} else {
		for b, blk := range src.blk {
			copy(v[b*compress.BlockLen:], blk[:])
		}
	}
	k.bumpResident(int64(8 * len(v)))
	return v
}

// blocksOf returns a counted block index of tensor i holding src's values:
// each block the one at its place in nb — the neighbouring frame's index, nil
// for none — where the values are bit-identical, else a counted copy.
func (k *core) blocksOf(i int, src []float64, nb compress.Blocks) compress.Blocks {
	n := compress.NumBlocks(len(src))
	var idx compress.Blocks
	if pool := &k.poolIdx[i]; len(*pool) > 0 {
		idx = (*pool)[len(*pool)-1]
		*pool = (*pool)[:len(*pool)-1]
	} else {
		idx = make(compress.Blocks, n)
	}
	k.bumpResident(int64(8 * n))
	for b := range idx {
		vals := src[b*compress.BlockLen : min((b+1)*compress.BlockLen, len(src))]
		if nb != nil && sameBits(vals, nb[b][:len(vals)]) {
			k.hold(nb[b][:])
			idx[b] = nb[b]
			continue
		}
		var blk *[compress.BlockLen]float64
		if m := len(k.poolB); m > 0 {
			blk = k.poolB[m-1]
			k.poolB = k.poolB[:m-1]
		} else {
			blk = new([compress.BlockLen]float64)
		}
		copy(blk[:], vals)
		k.bumpResident(8 * compress.BlockLen)
		idx[b] = blk
	}
	return idx
}

// release ends one frame's hold on tensor i's arrays: an array nothing else
// holds — a flat array, a block — leaves the resident model and goes back to
// its pool, and so does a block index.
func (k *core) release(i int, h *held) {
	if h.flat != nil && k.letGo(h.flat) {
		k.bumpResident(int64(-8 * len(h.flat)))
		k.parkVals(k.flatPool(i), h.flat)
	}
	for _, blk := range h.blk {
		if k.letGo(blk[:]) {
			k.bumpResident(-8 * compress.BlockLen)
			if len(k.poolB) < compress.NumBlocks(k.jLen)+compress.NumBlocks(k.cLen) {
				k.poolB = append(k.poolB, blk)
			}
		}
	}
	if h.blk != nil {
		k.bumpResident(int64(-8 * len(h.blk)))
		if len(k.poolIdx[i]) < k.cd.depth {
			k.poolIdx[i] = append(k.poolIdx[i], h.blk)
		}
	}
	*h = held{}
}

// sameBlocks reports whether blk holds flat's values, bit for bit.
func sameBlocks(blk compress.Blocks, flat []float64) bool {
	for b, v := range blk {
		vals := flat[b*compress.BlockLen : min((b+1)*compress.BlockLen, len(flat))]
		if !sameBits(vals, v[:len(vals)]) {
			return false
		}
	}
	return true
}

// sameArray reports whether a and b are one array.
func sameArray(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// admitFrame brings p to rest as st's frame: sidecars first, then the fault
// window — rot after the checksum was taken is exactly what the sidecar
// exists to catch.
func (k *core) admitFrame(step int, st *stepRec, p pair) {
	st.rest(p)
	k.fault.MutateFloats(step, p.j)
	k.fault.MutateFloats(step, p.c)
}

// seal is the forward half of the blob lifecycle: codec, CRC, then the fault
// window (at-rest rot, caught by the CRC when the blob is opened). cur is
// compressed against h (none = an anchor's self-contained blob) into the
// scratch frames — a tensor bit-identical to its nearest reference is a
// repeat, which meets no codec and whose payload is empty; the sealed results
// alias the frames — shortened when the injector truncates — until keep copies
// them out or the budget refuses them.
func (k *core) seal(step int, cur pair, h history) (jb, cb []byte) {
	k.frameJ = sealTensor(k.frameJ, k.cd.j, 'J', step, cur.j, h.j, h.x)
	k.frameC = sealTensor(k.frameC, k.cd.c, 'C', step, cur.c, h.c, h.x)
	jb, _ = k.fault.MutateBlob(step, k.frameJ)
	cb, _ = k.fault.MutateBlob(step, k.frameC)
	return jb, cb
}

// sealTensor codes one tensor into dst, its CRC first.
func sealTensor(dst []byte, cd compress.Compressor, tensor byte, step int, cur []float64, h compress.History, x [][]float64) []byte {
	dst = dst[:crcLen]
	if h.Near == nil || !sameBits(cur, h.Near) {
		dst = compress.Encode(cd, dst, cur, h, x)
	}
	binary.LittleEndian.PutUint32(dst, blobCRC(tensor, step, dst[crcLen:]))
	return dst
}

// keep copies a sealed pair into the arena at its exact length and makes it
// st's blobs. On failure (closed arena, no memory to map) st is untouched and
// the tensor is named.
func (k *core) keep(st *stepRec, jb, cb []byte) (tensor string, err error) {
	aj, err := k.arena.append(jb)
	if err != nil {
		return "J", err
	}
	ac, err := k.arena.append(cb)
	if err != nil {
		return "C", err
	}
	st.jBlob, st.cBlob = aj, ac
	st.jbN, st.cbN = len(aj), len(ac)
	k.ob.arenaBytes.Set(float64(k.arena.offHeapBytes()))
	return "", nil
}

// quarantine marks a step unreadable until Repair and records the fact.
func (k *core) quarantine(step int, st *stepRec) {
	st.quarantined = true
	k.noteCorrupt()
	qsp := k.ob.rec.Start(k.ob.spanParent(), span.Quarantine, step)
	qsp.End()
}

// heal lifts a quarantine once recomputed plaintext is installed.
func (k *core) heal(st *stepRec) {
	st.quarantined = false
	k.stats.Repairs++
}

// closeCore drops every step, the pools and the arena (whose memory goes now,
// or on the last reader's unpin), and with them everything resident. The
// records are emptied in place before the list goes: a goroutine that
// outlived the run may still hold one.
func (k *core) closeCore() {
	for _, st := range k.steps {
		*st = stepRec{}
	}
	k.steps, k.poolJ, k.poolC, k.poolB, k.poolIdx, k.shared = nil, nil, nil, nil, [2][]compress.Blocks{}, nil
	k.bumpResident(-k.resident)
	k.arena.close()
	k.ob.arenaBytes.Set(float64(k.arena.offHeapBytes()))
}
