package jactensor

// What the stores share. storeBase is the part every store has — the Put
// contract, the stats with the resident meter, the corruption count and the
// attachment. core is what the two blob-holding stores (CompressedStore, the
// chain policy; TieredStore, the ladder policy) are built on: one record per
// step, the arena, the frame pool and the one path a step takes from
// plaintext to a sealed blob and back. core owns data and transitions only.
// It has no lock — each policy calls it under its own discipline — and it
// decides no placement.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/diskio"
	"masc/internal/faultinject"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/tiersched"
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
// (memory, disk, compressed, tiered).
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
func (f *frame) rotted() (tensor string, err error) {
	if got := blobframe.ChecksumFloat64(f.j); got != f.jSum {
		return "J", fmt.Errorf("checksum %#08x, want %#08x", got, f.jSum)
	}
	if got := blobframe.ChecksumFloat64(f.c); got != f.cSum {
		return "C", fmt.Errorf("checksum %#08x, want %#08x", got, f.cSum)
	}
	return "", nil
}

// heldFrame is one step's plaintext in the chain's window: put and not yet
// sealed, or fetched by a sweep — and, once the sweep released it, kept while a
// step below still decodes against it. Its arrays may be the neighbouring
// step's (core.hold).
type heldFrame struct {
	out      pair
	released bool // the sweep let go of out (ladder: the step is dead)
}

// stepRec is everything a blob-holding store knows about one step. Which
// fields are live is the policy's business: the ladder moves a step between
// rungs and hands its frame out directly; the chain keeps every blob in RAM,
// a frame on window anchors and in its history window, and hands out the
// window's frames.
type stepRec struct {
	tier         tiersched.Tier // ladder rung
	frame                       // checksummed plaintext at rest: the ladder's hot rung, a chain anchor
	heldFrame                   // chain: the step's place in the history window
	x            []float64      // chain: the state the step was produced at (Attachment.State) — the caller's array, not counted as resident
	jBlob, cBlob []byte         // sealed blobs: arena memory, or the scratch frames until kept or spilled
	jOff, cOff   int64          // spill offsets (ladder, tier == Disk)
	jbN, cbN     int            // sealed lengths, kept for spill reads
	pinned       bool           // window anchor: the chain cuts here; the ladder demotes it last and never drops it
	inUse        bool           // ladder: fetched and not yet released, so not evictable
	prefetched   bool           // ladder: materialized by the background prefetch
	quarantined  bool           // failed verification: unreadable until Repair
}

// spanCodec is implemented by codecs (masczip) that can record encode/decode
// spans under a per-call parent. A store serializes the calls of one codec
// pair, so setting the parent between calls is race-free.
type spanCodec interface {
	SetSpans(*span.Recorder)
	SetSpanParent(span.ID)
}

// history is the reference frames of one seal or decode, nearest first, per
// tensor, and the states both tensors' codecs may read beside them: the coded
// step's, then each frame's (compress.HistoryCompressor), nil when the run
// attached none. The zero value is none: a self-contained blob.
type history struct{ j, c, x [][]float64 }

// codecs is a first-tensor/second-tensor compressor pair with the optional
// capabilities the stores use. A StoreSlice decodes with a forked pair, which
// is why the decode half of the blob path hangs off this type and not core.
type codecs struct {
	j, c         compress.Compressor
	spanJ, spanC spanCodec // nil unless the codecs trace and spans are on
	// depth is how many frames above a step the chain holds for it: the
	// deeper codec's history depth, 1 for a pair of one-reference codecs.
	depth int
	hist  history // gather's scratch, so a steady-state seal or decode allocates nothing
}

func newCodecs(j, c compress.Compressor) codecs {
	depth := max(compress.HistoryDepth(j), compress.HistoryDepth(c))
	return codecs{j: j, c: c, depth: depth,
		hist: history{make([][]float64, 0, depth), make([][]float64, 0, depth), make([][]float64, 0, depth+1)}}
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
// calibration phase), so the next blob round-trips on its own. Codecs without
// the capability still get a value-chain cut from a nil reference.
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
// sealed against; a failure names the tensor.
func (cd *codecs) decode(p pair, jp, cp []byte, h history) (tensor string, err error) {
	if err := compress.Decode(cd.j, p.j, jp, h.j, h.x); err != nil {
		return "J", err
	}
	if err := compress.Decode(cd.c, p.c, cp, h.c, h.x); err != nil {
		return "C", err
	}
	return "", nil
}

// openPair verifies a step's sealed blobs (magic, kind, step, length,
// CRC32C) and returns their payloads; a failure names the tensor.
func openPair(step int, jb, cb []byte) (jp, cp []byte, tensor string, err error) {
	if jp, err = blobframe.Open(jb, 'J', step); err != nil {
		return nil, nil, "J", err
	}
	if cp, err = blobframe.Open(cb, 'C', step); err != nil {
		return nil, nil, "C", err
	}
	return jp, cp, "", nil
}

// poolFrames caps the frame pool beyond the chain's history depth. A
// Put/compress or fetch/Release cycle keeps a frame or two waiting (plus the
// prefetch's and a short queue's), and the end of a forward pass parks the
// whole history window for the sweep to take back; without a cap an
// unbudgeted ladder would park its whole tensor there as the sweep releases
// it.
const poolFrames = 4

// core is the shared body of the blob-holding stores.
type core struct {
	storeBase
	cd          codecs
	steps       []*stepRec
	anchorEvery int // every k-th step is a window anchor; 0 = none

	// Sealed blobs are slices into the arena, not heap objects: off the Go
	// heap on unix, so the GC pacer sizes its headroom on the plaintext
	// working set alone (DESIGN.md, "Modelled vs real memory"). frameJ/frameC
	// are the scratch frames seal compresses into; only one seal runs at a
	// time per store.
	arena          blobArena
	frameJ, frameC []byte

	// The pools recycle plaintext arrays, one per tensor, so a steady-state
	// Put or Fetch allocates nothing. Pooled arrays are idle memory the
	// resident model does not count; an array counts from the moment its
	// holder bumps the model to the matching release.
	poolJ, poolC [][]float64
	// shared lists the arrays more than one frame of the chain's window
	// holds, with their holder counts (hold, letGo).
	shared map[*float64]int
}

func newCore(jc, cc compress.Compressor) core {
	return core{
		cd:     newCodecs(jc, cc),
		arena:  blobArena{src: defaultChunks()},
		frameJ: make([]byte, blobframe.HeaderSize),
		frameC: make([]byte, blobframe.HeaderSize),
	}
}

// newRec starts the record of an admitted step. Step 0 is never an anchor:
// it has nothing below it.
func (k *core) newRec(step int) *stepRec {
	return &stepRec{pinned: k.anchorEvery > 0 && step > 0 && step%k.anchorEvery == 0}
}

// anchorMenu is the window-boundary menu of a finished forward pass: the
// pinned steps below the head for which keep holds (nil = all), ascending,
// then the head. The head is listed once, here, even when its number makes
// it a pinned step — a duplicate top would degenerate the windowed engine's
// boundary split into an empty window. nil before EndForward.
func (k *core) anchorMenu(keep func(*stepRec) bool) []int {
	if !k.forwardDone || len(k.steps) == 0 {
		return nil
	}
	head := len(k.steps) - 1
	var out []int
	for i, st := range k.steps[:head] {
		if st.pinned && (keep == nil || keep(st)) {
			out = append(out, i)
		}
	}
	return append(out, head)
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
	if len(*pool) < poolFrames+k.cd.depth {
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
		k.parkVals(&k.poolC, p.c)
	}
}

// sameBits reports whether two value arrays are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hold gives v one more holder. The chain lets consecutive steps whose values
// for a tensor are bit-identical hold one array, so a tensor that does not
// move — a linear circuit's — costs its history window one frame, not depth+1.
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

// admitFrame brings p to rest as st's frame: sidecars first, then the fault
// window — rot after the checksum was taken is exactly what the sidecar
// exists to catch.
func (k *core) admitFrame(step int, st *stepRec, p pair) {
	st.rest(p)
	k.fault.MutateFloats(step, p.j)
	k.fault.MutateFloats(step, p.c)
}

// seal is the forward half of the blob lifecycle: codec, blobframe.Seal,
// then the fault window (at-rest rot, caught by the CRC when the blob is
// opened). cur is compressed against h (none = self-contained) into the
// scratch frames; the sealed results alias them — shortened when the injector
// truncates — until keep copies them out or the ladder appends them to its
// spill file.
func (k *core) seal(step int, cur pair, h history) (jb, cb []byte) {
	k.frameJ = compress.Encode(k.cd.j, k.frameJ[:blobframe.HeaderSize], cur.j, h.j, h.x)
	k.frameC = compress.Encode(k.cd.c, k.frameC[:blobframe.HeaderSize], cur.c, h.c, h.x)
	blobframe.Seal(k.frameJ, 'J', step)
	blobframe.Seal(k.frameC, 'C', step)
	jb, _ = k.fault.MutateBlob(step, k.frameJ)
	cb, _ = k.fault.MutateBlob(step, k.frameC)
	return jb, cb
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

// closeCore drops every step, the pool and the arena (whose memory goes now,
// or on the last reader's unpin). The records are emptied in place before
// the list goes: a goroutine that outlived the run may still hold one.
func (k *core) closeCore() {
	for _, st := range k.steps {
		*st = stepRec{heldFrame: heldFrame{released: true}}
	}
	k.steps, k.poolJ, k.poolC, k.shared = nil, nil, nil, nil
	k.arena.close()
	k.ob.arenaBytes.Set(float64(k.arena.offHeapBytes()))
}
