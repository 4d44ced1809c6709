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
	"masc/internal/faultinject"
	"masc/internal/obs"
	"masc/internal/obs/span"
)

// Attachment is everything a run wires into its store: telemetry, the
// fallback parent of store-side spans (normally the run root span; the
// forward loop's step span takes precedence while one is published), a fault
// injector, the context the disk store's retry sleeps abort on, and the
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

// nTensors is how many tensors a step holds: the first — G in the facade, J
// in the benchmark's trace — and C. Every per-tensor rule is one loop over
// them, indexed by tensor.
const nTensors = 2

// tensorTags names each tensor: its tag in an arena blob's CRC and a spill
// record's kind, and, as a string, its StepError.Tensor.
var tensorTags = [nTensors]byte{'J', 'C'}

func tensorName(i int) string { return string(tensorTags[i]) }

// tensors is one step's plaintext, one value array per tensor.
type tensors [nTensors][]float64

// lens is v's value counts.
func (v tensors) lens() (n [nTensors]int) {
	for i := range v {
		n[i] = len(v[i])
	}
	return n
}

// storeBase is the state and bookkeeping that do not depend on what a store
// keeps or where.
type storeBase struct {
	stats       Stats
	resident    int64
	lens        [nTensors]int // per-step value counts, fixed by step 0
	frameBytes  int64         // 8 × the sum of lens
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

// admit is the Put contract, checked here for every store: steps arrive in
// order from 0, never after EndForward, and always with step 0's value
// counts. A violation is the caller's bug, not a storage fault — typed,
// naming the step, and not degradable, so it aborts the forward pass instead
// of surfacing later as a corrupt record. An admitted step is counted.
func (b *storeBase) admit(step int, v tensors) error {
	var why string
	switch {
	case b.forwardDone:
		why = "Put after EndForward"
	case step != b.stats.Steps:
		why = fmt.Sprintf("out of order (expected step %d)", b.stats.Steps)
	case step > 0 && v.lens() != b.lens:
		why = fmt.Sprintf("value counts changed (%v, step 0 had %v)", v.lens(), b.lens)
	}
	if why != "" {
		return &StepError{Step: step, Op: "put", Err: errors.New(why)}
	}
	if step == 0 {
		b.lens = v.lens()
		for _, n := range b.lens {
			b.frameBytes += int64(8 * n)
		}
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

// sidecars is the CRC32C of each of v's arrays.
func sidecars(v tensors) (sums [nTensors]uint32) {
	for i := range v {
		sums[i] = blobframe.ChecksumFloat64(v[i])
	}
	return sums
}

// checkSums checks v against its sidecars; a mismatch names the tensor.
func checkSums(v tensors, sums [nTensors]uint32) (tensor string, err error) {
	for i, want := range sums {
		if got := blobframe.ChecksumFloat64(v[i]); got != want {
			return tensorName(i), fmt.Errorf("checksum %#08x, want %#08x", got, want)
		}
	}
	return "", nil
}

// heldFrame is one step's plaintext in the chain's window: put and not yet
// sealed, or fetched by a sweep — and, once the sweep released it, kept while a
// step below still decodes against it. Each tensor is held flat or in blocks
// (held), and its arrays may be the neighbouring step's (core.hold).
type heldFrame struct {
	t    [nTensors]held
	lent bool // fetched and not yet released: the sweep reads the flat arrays
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

// flat is f's flat arrays: nil where a tensor is held in blocks.
func (f *heldFrame) flat() (v tensors) {
	for i := range f.t {
		v[i] = f.t[i].flat
	}
	return v
}

// flatFrame is a window frame holding v's arrays flat.
func flatFrame(v tensors) (f heldFrame) {
	for i := range v {
		f.t[i].flat = v[i]
	}
	return f
}

// stepRec is everything the chain knows about one step: its blobs in the
// arena and its place in the history window. It is 184 bytes on a 64-bit
// platform (TestStepRecordSize), and the store keeps one per step.
type stepRec struct {
	heldFrame                    // the step's place in the history window
	x           []float64        // the state the step was produced at (Attachment.State) — the caller's array, not counted as resident
	blobs       [nTensors][]byte // sealed blobs in the arena; nil for the head, a dropped step and a repeat
	repeat      [nTensors]bool   // the kept tensor is bit-identical to the step above's: no blob, its fetch holds that frame's array
	quarantined bool             // failed verification: unreadable until Repair
}

// allRepeat reports whether every tensor of the step repeats the step above:
// the step holds no blob at all.
func (st *stepRec) allRepeat() bool {
	for _, r := range st.repeat {
		if !r {
			return false
		}
	}
	return true
}

// spanCodec is implemented by codecs (masczip) that can record encode/decode
// spans under a per-call parent. A store serializes the calls of one codec
// pair, so setting the parent between calls is race-free.
type spanCodec interface {
	SetSpans(*span.Recorder)
	SetSpanParent(span.ID)
}

// history is the reference frames of one seal or decode, per tensor, and the
// states every tensor's codec may read beside them: the coded step's, then
// each frame's (compress.HistoryCompressor), nil when the run attached none.
// The zero value is none: a self-contained blob.
type history struct {
	t [nTensors]compress.History
	x [][]float64
}

// window is gather's scratch: the frames of one call, nearest first, which of
// them stay flat, and per tensor the history handed to the codec, with views
// of the flat frames past the nearest and the copies of their short last
// blocks.
type window struct {
	frames []*heldFrame
	keep   [][nTensors]bool
	far    [nTensors][]compress.Blocks
	views  [nTensors][]compress.Blocks
	tails  [nTensors][][compress.BlockLen]float64
	x      [][]float64
}

// traceCodecs wires the codecs to rec, so each compress/decompress span
// encloses the codec's own encode/decode span.
func (k *core) traceCodecs(rec *span.Recorder) {
	if rec == nil {
		return
	}
	for i, c := range k.codec {
		if sc, ok := c.(spanCodec); ok {
			sc.SetSpans(rec)
			k.spans[i] = sc
		}
	}
}

// setParent points the codecs' next encode/decode span at id.
func (k *core) setParent(id span.ID) {
	for _, sc := range k.spans {
		if sc != nil {
			sc.SetSpanParent(id)
		}
	}
}

// decode inflates verified payloads into out against the history they were
// sealed against; a tensor whose array is nil — a repeat, which has no
// payload — is skipped. A failure names the tensor.
func (k *core) decode(out tensors, payloads [nTensors][]byte, h history) (tensor string, err error) {
	for i, v := range out {
		if v == nil {
			continue
		}
		if err := compress.Decode(k.codec[i], v, payloads[i], h.t[i], h.x); err != nil {
			return tensorName(i), err
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

// openBlobs verifies a step's sealed blobs as its tensors' and returns their
// payloads, aliasing the blobs; a repeat has neither. A failure names the
// tensor.
func openBlobs(step int, blobs [nTensors][]byte, repeat [nTensors]bool) (payloads [nTensors][]byte, tensor string, err error) {
	for i, b := range blobs {
		if repeat[i] {
			continue
		}
		if len(b) < crcLen {
			return payloads, tensorName(i), fmt.Errorf("blob of %d bytes is shorter than its %d-byte CRC", len(b), crcLen)
		}
		payloads[i] = b[crcLen:]
		if got, want := blobCRC(tensorTags[i], step, payloads[i]), binary.LittleEndian.Uint32(b); got != want {
			return payloads, tensorName(i), fmt.Errorf("CRC32C %#08x, want %#08x", got, want)
		}
	}
	return payloads, "", nil
}

// sealedLen is the sealed size of a step's blobs.
func sealedLen(blobs [nTensors][]byte) int {
	n := 0
	for _, b := range blobs {
		n += len(b)
	}
	return n
}

// poolFrames caps the frame pool. A Put/compress or fetch/Release cycle keeps
// a frame or two waiting (plus a short queue's under async); without a
// cap the pool would grow to the window's high-water mark and keep it. The
// blocks wait in a pool of one frame's worth, the block indices in one of a
// window's.
const poolFrames = 4

// core is the body of the blob-holding store.
type core struct {
	storeBase
	codec [nTensors]compress.Compressor
	spans [nTensors]spanCodec // nil unless the codec traces and spans are on
	// depth is how many frames above a step the chain holds for it: the
	// deepest codec's history depth, 1 for one-reference codecs.
	depth int
	win   window // gather's scratch, so a steady-state seal or decode allocates nothing
	steps []*stepRec

	// Sealed blobs are slices into the arena, not heap objects: off the Go
	// heap on unix, so the GC pacer sizes its headroom on the plaintext
	// working set alone (DESIGN.md, "Modelled vs real memory"). sealBuf holds
	// the scratch blobs seal compresses into, one per tensor; only one seal
	// runs at a time per store.
	arena   blobArena
	sealBuf [nTensors][]byte

	// The pools recycle plaintext arrays and block indices, one pool per
	// tensor, and blocks, so a steady-state Put or Fetch allocates nothing.
	// Pooled arrays are idle memory the resident model does not count; an
	// array counts from the moment its holder bumps the model to the
	// matching release.
	pool    [nTensors][][]float64
	poolB   []*[compress.BlockLen]float64
	poolIdx [nTensors][]compress.Blocks
	// shared lists the arrays — flat frames and blocks — more than one frame
	// of the chain's window holds, with their holder counts (hold, letGo).
	shared map[*float64]int
}

func newCore(c [nTensors]compress.Compressor) core {
	depth := 0
	for _, t := range c {
		depth = max(depth, compress.HistoryDepth(t))
	}
	w := window{frames: make([]*heldFrame, 0, depth), keep: make([][nTensors]bool, depth), x: make([][]float64, 0, depth+1)}
	for i := range w.far {
		w.far[i] = make([]compress.Blocks, 0, depth)
		w.views[i] = make([]compress.Blocks, depth)
		w.tails[i] = make([][compress.BlockLen]float64, depth)
	}
	k := core{codec: c, depth: depth, win: w, arena: blobArena{src: defaultChunks()}}
	for i := range k.sealBuf {
		k.sealBuf[i] = make([]byte, crcLen)
	}
	return k
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

// copyFrame returns a pooled frame holding a copy of src.
func (k *core) copyFrame(src tensors) (v tensors) {
	for i := range v {
		v[i] = takeVals(&k.pool[i], k.lens[i])
		copy(v[i], src[i])
	}
	return v
}

// parkFrame puts an idle frame nothing else holds back in the pools.
func (k *core) parkFrame(v tensors) {
	for i := range v {
		if v[i] != nil {
			k.parkVals(&k.pool[i], v[i])
		}
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

// flatOf returns a counted flat array of tensor i holding src's values.
func (k *core) flatOf(i int, src held) []float64 {
	v := takeVals(&k.pool[i], k.lens[i])
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
		k.parkVals(&k.pool[i], h.flat)
	}
	frameBlocks := 0
	for _, n := range k.lens {
		frameBlocks += compress.NumBlocks(n)
	}
	for _, blk := range h.blk {
		if k.letGo(blk[:]) {
			k.bumpResident(-8 * compress.BlockLen)
			if len(k.poolB) < frameBlocks {
				k.poolB = append(k.poolB, blk)
			}
		}
	}
	if h.blk != nil {
		k.bumpResident(int64(-8 * len(h.blk)))
		if len(k.poolIdx[i]) < k.depth {
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

// seal is the forward half of the blob lifecycle: codec, CRC, then the fault
// window (at-rest rot, caught by the CRC when the blob is opened). Each of
// cur's tensors is compressed against h (none = a self-contained blob) into
// its scratch blob after the CRC — except a tensor bit-identical
// to its nearest reference, a repeat, which meets no codec and seals to
// nothing: the sweep reads that frame, so there is nothing to keep. The
// sealed results alias the scratch — shortened when the injector truncates —
// until keep copies them out or the budget refuses them.
func (k *core) seal(step int, cur tensors, h history) (sealed [nTensors][]byte, repeat [nTensors]bool) {
	for i, ht := range h.t {
		if repeat[i] = ht.Near != nil && sameBits(cur[i], ht.Near); repeat[i] {
			continue
		}
		dst := compress.Encode(k.codec[i], k.sealBuf[i][:crcLen], cur[i], ht, h.x)
		binary.LittleEndian.PutUint32(dst, blobCRC(tensorTags[i], step, dst[crcLen:]))
		k.sealBuf[i] = dst
		sealed[i], _ = k.fault.MutateBlob(step, dst)
	}
	return sealed, repeat
}

// keep copies a step's sealed blobs into the arena at their exact length and
// makes them and the repeat marks st's; a repeat appends nothing. On failure
// (closed arena, no memory to map) st is untouched and the tensor is named.
func (k *core) keep(st *stepRec, sealed [nTensors][]byte, repeat [nTensors]bool) (tensor string, err error) {
	var kept [nTensors][]byte
	for i, b := range sealed {
		if repeat[i] {
			continue
		}
		if kept[i], err = k.arena.append(b); err != nil {
			return tensorName(i), err
		}
	}
	st.blobs, st.repeat = kept, repeat
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
	k.steps, k.pool, k.poolB, k.poolIdx, k.shared = nil, [nTensors][][]float64{}, nil, [nTensors][]compress.Blocks{}, nil
	k.bumpResident(-k.resident)
	k.arena.close()
	k.ob.arenaBytes.Set(float64(k.arena.offHeapBytes()))
}
