package jactensor

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/compress/varint"
	"masc/internal/obs/span"
	"masc/internal/sparse"
)

// CompressedStore is the chain policy over core: the tensor stays in memory
// as per-step sealed blobs, following Algorithm 2 of the paper, with one
// difference. There a step is predicted from the next one; here from as many
// of the steps above it as the codecs read (cd.depth: seven for masczip, whose
// temporal candidate extrapolates; one for a one-reference codec). During
// forward integration the store therefore holds a window of the depth+1 newest
// plaintext frames, and Put of step t+depth seals step t against frames
// t+1…t+depth; EndForward seals the tail against what is above it, all but the
// head step n, whose window frame — checksummed, never coded — is the first
// the sweep reads. During the reverse sweep step i is decompressed against the
// already-materialized steps i+1…i+depth, which the store keeps after the
// sweep's Release until the sweep is depth steps below them (reader.go). The
// chain has that one reader and no other way in: it is never cut, and no
// plaintext but the window's is kept. A tensor bit-identical to the
// step above it is a repeat: it has no blob, and its fetch holds the frame
// above's array, so it costs neither side a codec call. The coded step
// and its nearest reference are flat; the frames past the nearest are held in
// blocks of compress.BlockLen values, and a block bit-identical to the
// neighbouring frame's is that frame's block, so a frame costs the blocks it
// changed. Consecutive flat frames of a tensor
// that are bit-identical share one array, so a tensor that does not move
// costs the window one frame and the arena nothing.
//
// In async mode (NewCompressedStoreAsync) the compression runs on a
// persistent background worker behind a bounded queue, so Put returns as
// soon as the incoming values are copied and the solver proceeds while the
// due step compresses. The blob sequence is byte-identical to sync mode: both
// run the same runJob calls in the same order, the worker merely elsewhere.
// The reverse half of the pipeline is not the store's: the adjoint sweep
// reads every store through its fetcher goroutine, one step ahead of the
// solve, whatever the mode. The store itself has one reader, whichever
// goroutine calls it, and holds no frame ahead of the sweep.
//
// Under a memory budget (SetBudget, budget.go) the chain keeps the prefix of
// steps whose blobs fit and drops the rest, which the reverse sweep
// recomputes.
type CompressedStore struct {
	core
	issued   int              // steps whose seal job has been issued; only Put and EndForward's caller touches it
	sealed   bool             // EndForward sealed every step below the head: Fetch may start
	at       int              // the lowest step the reverse sweep has fetched
	headSums [nTensors]uint32 // the head's CRC32C sidecars (signHead): its window frame is its only copy
	budget   int64            // SetBudget; 0 = none

	// mu guards everything above that a worker or an abandoned fetcher
	// goroutine can touch (steps and their records, arena, stats, resident,
	// pools, ferr). Codec calls run outside it: the forward ones are
	// serialized per store (the caller in sync mode, the single worker in
	// async mode, EndForward after the drain), the reverse ones by the
	// sweep, which fetches one step at a time, on a pinned arena.
	mu      sync.Mutex
	async   bool
	jobs    chan fwdJob
	wkDone  chan struct{}
	drained bool  // the job queue is closed (EndForward or Close ran)
	ferr    error // first compression error; surfaces on Put/EndForward/Fetch/Close

	dropFrom  int           // the first step the budget dropped; math.MaxInt while none is
	recompute RecomputeFunc // SetRecompute: re-derives a dropped step
}

// fwdJob asks for step's held plaintext to be sealed against the frames above
// it.
type fwdJob struct {
	step   int
	st     *stepRec
	parent span.ID // the span that caused the job (a later step's put)
}

// NewCompressedStore builds a synchronous store over the given codecs (jc
// for the first tensor — G in the facade — and cc for the second, C), each
// built on its tensor's pattern. jPat/cPat, when non-nil, contribute the
// one-off shared-index footprint to the stats, matching the paper's
// accounting.
func NewCompressedStore(jc, cc compress.Compressor, jPat, cPat *sparse.Pattern) *CompressedStore {
	s := &CompressedStore{core: newCore([nTensors]compress.Compressor{jc, cc}), dropFrom: math.MaxInt}
	for _, pat := range [nTensors]*sparse.Pattern{jPat, cPat} {
		if pat != nil {
			s.stats.IndexBytes += int64(len(varint.EncodeCSRIndices(pat.RowPtr, pat.ColIdx)))
		}
	}
	s.stats.StoredBytes = s.stats.IndexBytes
	return s
}

// asyncDepth is how many timesteps the solver may run ahead of an async
// store's compressor.
const asyncDepth = 2

// NewCompressedStoreAsync builds a pipelined store: Put hands compression
// jobs to a persistent background worker through a queue of two steps. Stats
// gain a StallTime entry: the time Put spent blocked on a full queue.
//
// depth is ignored and callers pass 0. Deprecated: the queue depth is a
// constant; the parameter stays so existing callers compile.
func NewCompressedStoreAsync(jc, cc compress.Compressor, jPat, cPat *sparse.Pattern, depth int) *CompressedStore {
	s := NewCompressedStore(jc, cc, jPat, cPat)
	s.async = true
	s.jobs = make(chan fwdJob, asyncDepth)
	s.wkDone = make(chan struct{})
	go s.worker()
	return s
}

// Attach wires telemetry and fault injection into the store: blob corruption
// applies after frames are sealed, and worker panics fire when the async
// pipeline compresses the configured step. Call it before the first Put (the
// worker reads the handles unlocked afterwards).
func (s *CompressedStore) Attach(a Attachment) {
	s.attach(a, "compressed")
	s.traceCodecs(s.ob.rec)
}

// Put implements Store: the admitted step's values, and the state it was
// produced at (nil = none), join the history window, and the step depth below
// it, whose history is now complete, is sealed. The two modes differ in one
// thing only — sync runs that job here; async hands it to the worker, so the
// caller proceeds to the next timestep at once and a worker error surfaces one
// Put late at worst.
func (s *CompressedStore) Put(step int, jVals, cVals []float64) error {
	vals := tensors{jVals, cVals}
	s.mu.Lock()
	err := s.ferr
	if err == nil {
		err = s.admit(step, vals)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	defer psp.End()
	st := &stepRec{}
	if s.state != nil {
		st.x = s.state(step)
	}
	s.mu.Lock()
	if step == 0 && !s.fits(0) {
		s.dropFromStep(0, 0, psp.ID()) // the budget cannot hold the window
	}
	if !s.dropped(step) {
		var below *heldFrame
		if step > 0 {
			below = &s.steps[step-1].heldFrame // unsealed, so held: its job is issued by this Put at the earliest
		}
		for i := range st.t {
			st.t[i] = s.adopt(i, vals[i], below)
		}
	}
	s.steps = append(s.steps, st)
	// A dropped step's due one is dropped too: the first dropped step was
	// sealed, or refused, before this Put issued its job.
	dropped := s.dropped(step)
	s.mu.Unlock()

	if due := step - s.depth; due >= 0 && !dropped {
		s.issued = due + 1
		job := fwdJob{step: due, st: s.steps[due], parent: psp.ID()}
		if s.async {
			s.enqueue(job, &psp)
		} else if err := s.runJob(job); err != nil {
			return err
		}
	}
	if s.async {
		depth := len(s.jobs)
		s.ob.queueDepth.Set(float64(depth))
		psp.Attr("queue", int64(depth))
	}
	return nil
}

// adopt returns tensor i of a frame put with vals: the flat array of the
// frame below where that holds the same values; else, when the codecs read
// frames past the nearest — as this one is until the step below is sealed —
// blocks, each the frame below's where bit-identical; else a counted flat
// copy, as is the first step's, which has no frame below. mu must be held.
func (s *CompressedStore) adopt(i int, vals []float64, below *heldFrame) held {
	var b held
	if below != nil {
		b = below.t[i]
	}
	switch {
	case b.flat != nil && sameBits(vals, b.flat):
		s.hold(b.flat)
		return held{flat: b.flat}
	case b.ok() && s.depth > 1:
		return held{blk: s.blocksOf(i, vals, b.blk)}
	}
	v := takeVals(&s.pool[i], len(vals))
	copy(v, vals)
	s.bumpResident(int64(8 * len(v)))
	return held{flat: v}
}

// enqueue hands job to the worker. A full queue means the compressor is the
// bottleneck right now: the wait is accounted, so the overlap experiment can
// report how much compression latency leaked back onto the solver.
func (s *CompressedStore) enqueue(job fwdJob, psp *span.Span) {
	select {
	case s.jobs <- job:
		return
	default:
	}
	start := time.Now()
	s.jobs <- job
	stall := time.Since(start)
	s.mu.Lock()
	s.stats.StallTime += stall
	s.mu.Unlock()
	s.ob.stallSec.AddDuration(stall)
	psp.Attr("stall_ns", int64(stall))
}

// worker drains the forward compression queue. It is the only goroutine
// running jobs, so the (stateful, non-thread-safe) codecs see exactly the
// sync-mode call sequence. A job that does not run to the end still gives its
// step's frame back.
func (s *CompressedStore) worker() {
	defer close(s.wkDone)
	for job := range s.jobs {
		s.mu.Lock()
		failed := s.ferr != nil
		s.mu.Unlock()
		if failed || s.guarded(job) != nil {
			s.mu.Lock()
			s.giveBack(&job.st.heldFrame)
			s.mu.Unlock()
		}
		s.ob.queueDepth.Set(float64(len(s.jobs)))
	}
}

// guarded runs one job on the worker. A panic — injected, or a codec's — is
// recorded as a typed error naming the step and surfaces from the next Put,
// EndForward, Fetch or Close; never swallowed, never on the solver's thread.
func (s *CompressedStore) guarded(job fwdJob) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StepError{Step: job.step, Op: "compress", Err: fmt.Errorf("async worker panic: %v", r)}
			s.mu.Lock()
			if s.ferr == nil {
				s.ferr = err
			}
			s.mu.Unlock()
		}
	}()
	if s.fault.PanicNow(job.step) {
		panic(fmt.Sprintf("injected worker panic at step %d", job.step))
	}
	return s.runJob(job)
}

// runJob is the forward step of Algorithm 2, the same in both modes: seal
// job.step against the frames above it, keep the blobs if the budget admits
// them, account them and let the step's frame go. A step the budget has
// dropped does nothing. mu must not be held.
func (s *CompressedStore) runJob(job fwdJob) error {
	st := job.st
	s.mu.Lock()
	if s.dropped(job.step) {
		s.mu.Unlock()
		return nil
	}
	h := s.gather(job.step)
	cur := st.flat()
	s.mu.Unlock()
	csp := s.ob.rec.Start(job.parent, span.Compress, job.step)
	s.setParent(csp.ID())
	start := time.Now()
	sealed, repeat := s.seal(job.step, cur, h)
	stored := sealedLen(sealed)

	s.mu.Lock()
	var tensor string
	var err error
	kept := s.fits(stored)
	if kept {
		tensor, err = s.keep(st, sealed, repeat)
	}
	elapsed := time.Since(start)
	s.stats.CompressTime += elapsed
	switch {
	case err != nil:
		err = &StepError{Step: job.step, Op: "compress", Tensor: tensor, Err: err}
		if s.ferr == nil {
			s.ferr = err
		}
		stored = 0
	case !kept:
		s.dropFromStep(job.step, stored, csp.ID())
		stored = 0
	default:
		s.stats.StoredBytes += int64(stored)
		for i, r := range repeat {
			if r {
				s.stats.RepeatSteps[i]++
			}
		}
		s.bumpResident(int64(stored))
		s.giveBack(&st.heldFrame)
	}
	s.mu.Unlock()
	csp.Attr("bytes", int64(stored))
	csp.End()
	if err != nil {
		return err
	}
	s.ob.compressSec.AddDuration(elapsed)
	if kept {
		s.ob.storedBytes.Add(float64(stored))
		s.ob.blobBytes.Observe(float64(stored))
	}
	return nil
}

// drain closes the job queue and joins the worker (async mode; the queue is
// closed once, the worker may be awaited by several), then reports the first
// compression error.
func (s *CompressedStore) drain() error {
	s.mu.Lock()
	first := !s.drained
	s.drained = true
	s.mu.Unlock()
	if s.async {
		if first {
			close(s.jobs)
		}
		<-s.wkDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ferr
}

// EndForward implements Store: the steps still waiting for their history are
// sealed against what is above them, all but the final step, whose window
// frame is its only copy and the first frame the sweep reads: it is not coded,
// and its sidecars are taken — no copy — for the fetch that reads it to check.
// In async mode the compression queue drains first. Under a budget it records
// how many steps were kept.
func (s *CompressedStore) EndForward() error {
	s.mu.Lock()
	if s.forwardDone {
		s.mu.Unlock()
		return nil
	}
	if s.stats.Steps == 0 {
		s.mu.Unlock()
		return fmt.Errorf("jactensor: EndForward with no steps")
	}
	// Block further Puts before the queue closes.
	s.forwardDone = true
	s.mu.Unlock()
	if err := s.drain(); err != nil {
		return err
	}
	s.mu.Lock()
	n := len(s.steps) - 1
	s.at = n
	s.mu.Unlock()
	for ; s.issued < n; s.issued++ {
		// The worker is gone, but its jobs keep its panic guard.
		run := s.runJob
		if s.async {
			run = s.guarded
		}
		if err := run(fwdJob{step: s.issued, st: s.steps[s.issued], parent: s.ob.spanParent()}); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dropped(n) {
		s.flatten(&s.steps[n].heldFrame, nil)
		s.signHead()
	}
	if s.budget > 0 {
		s.stats.TierKeptSteps = min(s.dropFrom, len(s.steps))
		s.stats.TierDroppedSteps = len(s.steps) - s.stats.TierKeptSteps
		s.ob.droppedSteps.Set(float64(s.stats.TierDroppedSteps))
	}
	s.sealed = true
	return nil
}

// giveBack ends a window frame's hold on its arrays. mu must be held.
func (s *CompressedStore) giveBack(f *heldFrame) {
	for i := range f.t {
		s.release(i, &f.t[i])
	}
	*f = heldFrame{}
}

// signHead takes the sidecars of the head's window frame, its only copy; a
// fetch of the head checks the plaintext it serves against them. The frame is
// flat. mu must be held.
func (s *CompressedStore) signHead() {
	s.headSums = sidecars(s.steps[len(s.steps)-1].flat())
}

// checkHead verifies out, the head's plaintext a fetch is about to serve,
// against the sidecars signHead took. A mismatch quarantines the step. mu
// must be held.
func (s *CompressedStore) checkHead(step int, out tensors) error {
	st := s.steps[step]
	tensor, err := checkSums(out, s.headSums)
	if err == nil {
		return nil
	}
	if !st.quarantined {
		s.quarantine(step, st)
	}
	return corruptErr(step, "fetch", tensor, err)
}

// flatten holds f's tensors flat: where one is in blocks, the flat array of
// below — a frame beside it, nil for none — if that holds the same values,
// else a counted copy. mu must be held.
func (s *CompressedStore) flatten(f, below *heldFrame) {
	for i := range f.t {
		h := &f.t[i]
		if h.blk == nil {
			continue
		}
		var v []float64
		if b := below; b != nil && b.t[i].flat != nil && sameBlocks(h.blk, b.t[i].flat) {
			v = b.t[i].flat
			s.hold(v)
		} else {
			v = s.flatOf(i, *h)
		}
		s.release(i, h)
		h.flat = v
	}
}

// toBlocks holds tensor i of a window frame, h, in blocks: each the block at
// its place in nb — the index of the frame above it, nil for none — where
// bit-identical, else a counted copy. mu must be held.
func (s *CompressedStore) toBlocks(i int, h *held, nb compress.Blocks) {
	idx := s.blocksOf(i, h.flat, nb)
	s.release(i, h)
	h.blk = idx
}

// decodeStep is the reverse half of the blob lifecycle: pin the arena, open
// the step's sealed blobs, decode them against h into pooled arrays, and
// quarantine the step on any failure. A repeat has no blob: the tensor is the
// nearest history frame's array, held, not counted again, and a step whose
// every tensor repeats touches neither the arena nor a codec. The frame comes
// back counted and is the caller's to install. At most one call runs at a
// time: the sweep's fetch. mu must not be held.
func (s *CompressedStore) decodeStep(step int, st *stepRec, h history) (tensors, error) {
	s.mu.Lock()
	if st.quarantined {
		s.mu.Unlock()
		return tensors{}, corruptErr(step, "fetch", "", errQuarantined)
	}
	for i, r := range st.repeat {
		if r && h.t[i].Near == nil {
			s.quarantine(step, st)
			s.mu.Unlock()
			return tensors{}, corruptErr(step, "fetch", tensorName(i), errors.New("a repeat, and the frame above it is not resident"))
		}
	}
	var out tensors
	if st.allRepeat() {
		defer s.mu.Unlock()
		if s.arena.closed {
			return tensors{}, closedErr(step)
		}
		s.settle(&out, h)
		return out, nil
	}
	if s.arena.pin() != nil {
		s.mu.Unlock()
		return tensors{}, closedErr(step)
	}
	blobs, repeat := st.blobs, st.repeat
	for i, r := range repeat {
		if !r {
			out[i] = takeVals(&s.pool[i], s.lens[i])
		}
	}
	s.mu.Unlock()
	defer s.unpinBlobs()

	var elapsed time.Duration
	payloads, tensor, err := openBlobs(step, blobs, repeat)
	if err == nil {
		dsp := s.ob.rec.Start(s.ob.spanParent(), span.Decompress, step)
		s.setParent(dsp.ID())
		start := time.Now()
		tensor, err = s.decode(out, payloads, h)
		elapsed = time.Since(start)
		dsp.Attr("bytes", int64(sealedLen(blobs)))
		dsp.End()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The blob verified but the codec rejected the payload, or the blob
		// did not verify: either way a degradable corruption.
		s.parkFrame(out)
		s.quarantine(step, st)
		return tensors{}, corruptErr(step, "fetch", tensor, err)
	}
	s.stats.DecompressTime += elapsed
	s.ob.decompressSec.AddDuration(elapsed)
	s.settle(&out, h)
	return out, nil
}

// settle counts out's decoded arrays and makes each repeat, whose array is
// nil, the nearest frame's, held. mu must be held.
func (s *CompressedStore) settle(out *tensors, h history) {
	for i, v := range out {
		if v != nil {
			s.bumpResident(int64(8 * len(v)))
		} else {
			out[i] = h.t[i].Near
			s.hold(out[i])
		}
	}
}

// unpinBlobs ends a decodeStep read; after Close, the last one returns the
// arena's memory.
func (s *CompressedStore) unpinBlobs() {
	s.mu.Lock()
	s.arena.unpin()
	if s.arena.closed {
		s.ob.arenaBytes.Set(float64(s.arena.offHeapBytes()))
	}
	s.mu.Unlock()
}

// Stats implements Store.
func (s *CompressedStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Store. In async mode it shuts the pipeline down, even
// when the forward pass was abandoned before EndForward. The blobs' memory
// is returned now, or — when an abandoned fetcher is still reading one — by
// its unpin; every later Fetch fails with ErrClosed. Idempotent.
func (s *CompressedStore) Close() error {
	s.mu.Lock()
	s.forwardDone = true
	s.mu.Unlock()
	_ = s.drain() // reported below
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeCore()
	return s.ferr
}

// PredictorStats returns the predictor-selection statistics accumulated by
// the first-tensor (G in the facade) and C codecs, when the store was built
// over masczip compressors with Options.CollectStats enabled (ok reports both
// conditions). In async mode call it only after EndForward or Close, once the
// worker has drained.
func (s *CompressedStore) PredictorStats() (j, c masczip.Stats, ok bool) {
	type statser interface{ Stats() masczip.Stats }
	var st [nTensors]masczip.Stats
	for i, cd := range s.codec {
		sc, isStatser := cd.(statser)
		if !isStatser {
			return j, c, false
		}
		st[i] = sc.Stats()
		// CollectStats off leaves the counters at zero; report !ok so
		// callers can distinguish "no data" from "all-zero data".
		ok = ok || st[i].Elements != 0
	}
	return st[0], st[1], ok
}
