package jactensor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/compress/varint"
	"masc/internal/obs/span"
	"masc/internal/sparse"
)

// CompressedStore is the chain policy over core: the tensor stays in memory
// as per-step sealed blobs, following Algorithm 2 of the paper. During
// forward integration step t's Put compresses step t-1 using step t as the
// prediction reference; during the reverse sweep step i is decompressed
// using the already-materialized step i+1, whose memory is freed by Release.
//
// Every k-th step can be made a window anchor (SetAnchorEvery): the chain is
// cut there — the anchor's blob is compressed with no reference and restarted
// codecs — and its plaintext stays resident as a checksummed frame, so a
// window-local reverse sweep (StoreSlice) can start at it without decoding
// the chain above. A rotted anchor frame is dropped and the step served from
// its self-contained blob: a slower fetch, not an error.
//
// In async mode (NewCompressedStoreAsync) the compression runs on a
// persistent background worker behind a bounded queue, so Put returns as
// soon as the incoming values are copied and the solver proceeds to step
// t+1 while step t-1 compresses; symmetrically, the reverse sweep
// prefetches step i-1 on a background goroutine while the adjoint solve
// consumes step i. The blob sequence is byte-identical to sync mode: both
// run the same runJob calls in the same order, the worker merely elsewhere.
//
// Built by NewAutoStore, the store starts with no codecs: it parks the first
// TrialSteps frames, trials the candidate menu on them, binds the winner and
// replays the parked frames through put (auto.go).
type CompressedStore struct {
	core
	last pair // plaintext of the highest Put step

	trial    *autoTrial // non-nil while the codecs are unbound
	selected string     // the codec a trial bound, and its scorecards
	trials   []compress.TrialResult

	// mu guards everything above that a worker, prefetch, window slice or
	// abandoned fetcher goroutine can touch (steps and their records, arena,
	// stats, resident, pool, ferr). Codec calls run outside it: the forward
	// ones are serialized per store (the caller in sync mode, the single
	// worker in async mode, EndForward after the drain), the reverse ones by
	// Fetch joining any prefetch first, on a pinned arena.
	mu      sync.Mutex
	async   bool
	jobs    chan fwdJob
	wkDone  chan struct{}
	drained bool  // the job queue is closed (EndForward or Close ran)
	ferr    error // first compression error; surfaces on Put/EndForward/Fetch/Close

	pf *prefetch // at most one in-flight reverse prefetch
}

// fwdJob asks for step's plaintext cur to be compressed against the next
// step's values (ref).
type fwdJob struct {
	step       int
	st         *stepRec
	cur        pair
	refJ, refC []float64
	parent     span.ID // the span that caused the job (the next step's put)
}

// prefetch is one in-flight background decompression.
type prefetch struct {
	step int
	st   *stepRec
	out  pair
	err  error
	done chan struct{}
}

// NewCompressedStore builds a synchronous store over the given codecs (jc
// for the first tensor — G in the facade — and cc for the second, C), each
// built on its tensor's pattern. jPat/cPat, when non-nil, contribute the
// one-off shared-index footprint to the stats, matching the paper's
// accounting.
func NewCompressedStore(jc, cc compress.Compressor, jPat, cPat *sparse.Pattern) *CompressedStore {
	s := &CompressedStore{core: newCore(jc, cc)}
	if jPat != nil {
		s.stats.StoredBytes += int64(len(varint.EncodeCSRIndices(jPat.RowPtr, jPat.ColIdx)))
	}
	if cPat != nil {
		s.stats.StoredBytes += int64(len(varint.EncodeCSRIndices(cPat.RowPtr, cPat.ColIdx)))
	}
	return s
}

// NewCompressedStoreAsync builds a pipelined store: Put hands compression
// jobs to a persistent background worker through a queue of the given
// depth (the number of timesteps the solver may run ahead of the
// compressor; <1 selects the default of 2), and the reverse sweep
// prefetches the next step in the background. Stats gain a StallTime
// entry: the time Put spent blocked on a full queue.
func NewCompressedStoreAsync(jc, cc compress.Compressor, jPat, cPat *sparse.Pattern, depth int) *CompressedStore {
	s := NewCompressedStore(jc, cc, jPat, cPat)
	if depth < 1 {
		depth = 2
	}
	s.async = true
	s.jobs = make(chan fwdJob, depth)
	s.wkDone = make(chan struct{})
	go s.worker()
	return s
}

// Attach wires telemetry and fault injection into the store: blob corruption
// applies after frames are sealed, float rot to anchor frames after their
// sidecars, and worker panics fire when the async pipeline compresses the
// configured step. Call it before the first Put (the worker reads the
// handles unlocked afterwards).
func (s *CompressedStore) Attach(a Attachment) {
	s.attach(a, "compressed")
	s.cd.trace(s.ob.rec)
	if s.trial != nil {
		s.trial.ob = newAutoObs(a.Obs, s.trial.cfg.Candidates)
	}
}

// SetAnchorEvery makes every k-th step (step 0 excluded) a window anchor.
// k <= 0 disables anchoring (the default). Call before the first Put;
// anchoring an in-flight forward pass is not supported.
func (s *CompressedStore) SetAnchorEvery(k int) {
	if s.stats.Steps == 0 {
		s.anchorEvery = max(k, 0)
	}
}

// Put implements Store.
func (s *CompressedStore) Put(step int, jVals, cVals []float64) error {
	s.mu.Lock()
	err := s.ferr
	if err == nil {
		err = s.admit(step, jVals, cVals)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if s.trial != nil {
		return s.park(jVals, cVals)
	}
	return s.put(step, jVals, cVals)
}

// put takes an admitted step: it becomes the chain's last plaintext, and the
// step before it is compressed against it. The two modes differ in one thing
// only — sync runs that job here, against the caller's slices; async copies
// the values into a pooled frame and hands the job to the worker, so the
// caller proceeds to the next timestep at once and a worker error surfaces
// one Put late at worst.
func (s *CompressedStore) put(step int, jVals, cVals []float64) error {
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	defer psp.End()
	// The chain cuts at an anchor: its blob is self-contained and its
	// plaintext retained. The head is never one (EndForward clears the mark).
	st := s.newRec(step)
	job := fwdJob{step: step - 1, cur: s.last, refJ: jVals, refC: cVals, parent: psp.ID()}
	if step > 0 {
		job.st = s.steps[step-1]
	}
	if s.async || step == 0 {
		// A frame for this step's values: a new one per step for the worker
		// to read while the solver moves on, the chain's one otherwise.
		s.mu.Lock()
		s.last = s.takeFrame()
		s.bumpResident(s.frameBytes)
		s.mu.Unlock()
	}
	if s.async {
		copy(s.last.j, jVals)
		copy(s.last.c, cVals)
		job.refJ, job.refC = s.last.j, s.last.c
		if step > 0 {
			s.enqueue(job, &psp)
		}
	} else {
		if step > 0 {
			if err := s.runJob(job); err != nil {
				return err
			}
		}
		copy(s.last.j, jVals)
		copy(s.last.c, cVals)
	}
	s.mu.Lock()
	s.steps = append(s.steps, st)
	s.mu.Unlock()
	if s.async {
		depth := len(s.jobs)
		s.ob.queueDepth.Set(float64(depth))
		psp.Attr("queue", int64(depth))
	}
	return nil
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
// sync-mode call sequence. A job's frame goes back to the pool unless it was
// retained as an anchor.
func (s *CompressedStore) worker() {
	defer close(s.wkDone)
	for job := range s.jobs {
		s.mu.Lock()
		failed := s.ferr != nil
		s.mu.Unlock()
		if failed || s.guarded(job) != nil || !job.st.pinned {
			s.mu.Lock()
			s.giveBack(&job.cur)
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
// job.step against the next step's values — or, at an anchor, against
// nothing and with restarted codecs — keep the blobs, account them, and
// retain an anchor's plaintext. mu must not be held.
func (s *CompressedStore) runJob(job fwdJob) error {
	cut := job.st.pinned
	refJ, refC := job.refJ, job.refC
	if cut {
		s.cd.restart()
		refJ, refC = nil, nil
	}
	csp := s.ob.rec.Start(job.parent, span.Compress, job.step)
	s.cd.setParent(csp.ID())
	start := time.Now()
	jb, cb := s.seal(job.step, job.cur, refJ, refC)
	stored := len(jb) + len(cb)

	s.mu.Lock()
	tensor, err := s.keep(job.st, jb, cb)
	elapsed := time.Since(start)
	if err != nil {
		err = &StepError{Step: job.step, Op: "compress", Tensor: tensor, Err: err}
		if s.ferr == nil {
			s.ferr = err
		}
		stored = 0
	} else {
		s.stats.StoredBytes += int64(stored)
		s.stats.CompressTime += elapsed
		s.bumpResident(int64(stored))
		if cut {
			// The worker's frame becomes the anchor (it is already counted
			// resident); the sync path's is the chain's one last frame, so
			// the anchor is a counted copy.
			master := job.cur
			if !s.async {
				master = s.copyFrame(job.cur)
				s.bumpResident(s.frameBytes)
			}
			s.admitFrame(job.step, job.st, master)
			s.stats.AnchorBytes += s.frameBytes
			s.ob.anchorBytes.Set(float64(s.stats.AnchorBytes))
		}
	}
	s.mu.Unlock()
	csp.Attr("bytes", int64(stored))
	csp.Attr("anchor", boolAttr(cut))
	csp.End()
	if err != nil {
		return err
	}
	s.ob.compressSec.AddDuration(elapsed)
	s.ob.storedBytes.Add(float64(stored))
	s.ob.blobBytes.Observe(float64(stored))
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

// EndForward implements Store: the final step is compressed with no
// reference, so the reverse chain has a self-contained head, and its
// plaintext stays resident as the first frame the sweep reads. A trial still
// pending (a run shorter than its window) binds first; in async mode the
// compression queue drains first.
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
	if s.trial != nil {
		if err := s.bind(); err != nil {
			return err
		}
	}
	if err := s.drain(); err != nil {
		return err
	}
	s.mu.Lock()
	n := len(s.steps) - 1
	head := s.steps[n]
	head.pinned = false
	s.mu.Unlock()
	if err := s.runJob(fwdJob{step: n, st: head, cur: s.last, parent: s.ob.spanParent()}); err != nil {
		return err
	}
	s.mu.Lock()
	head.out, s.last = s.last, pair{}
	s.mu.Unlock()
	return nil
}

// sealedLocked reports whether the forward pass has ended and every step's
// blob is stored — the precondition of Fetch and Slice. mu must be held.
func (s *CompressedStore) sealedLocked() bool {
	n := len(s.steps)
	return s.forwardDone && n > 0 && s.steps[n-1].jBlob != nil
}

// giveBack returns a plaintext frame to the pool and takes it out of the
// resident model. mu must be held.
func (s *CompressedStore) giveBack(p *pair) {
	if p.j != nil {
		s.bumpResident(-s.frameBytes)
		s.parkFrame(*p)
		*p = pair{}
	}
}

// anchorLocked returns st's retained anchor plaintext, verified, or a zero
// pair when there is none or it has rotted — in which case the frame is
// dropped and counted, and the caller decodes the step's self-contained blob
// instead. The slices are the store's own: callers copy. mu must be held.
func (s *CompressedStore) anchorLocked(st *stepRec) pair {
	if st.j == nil {
		return pair{}
	}
	if _, err := st.rotted(); err == nil {
		return st.pair
	}
	s.parkFrame(st.pair)
	st.frame = frame{}
	s.stats.AnchorBytes -= s.frameBytes
	s.ob.anchorBytes.Set(float64(s.stats.AnchorBytes))
	s.bumpResident(-s.frameBytes)
	s.noteCorrupt()
	return pair{}
}

// decodeStep is the reverse half of the blob lifecycle: pin the arena, open
// the step's sealed blobs, decode them with cd (the store's codecs, or a
// slice's forks) against ref into a pooled frame, and quarantine the step on
// any failure. The frame is the caller's to install and count. At most one
// call runs per codec pair at a time; prefetch marks the span of a background
// decode ahead of the sweep. mu must not be held.
func (s *CompressedStore) decodeStep(cd *codecs, step int, st *stepRec, ref pair, prefetch bool) (pair, error) {
	s.mu.Lock()
	if st.quarantined {
		s.mu.Unlock()
		return pair{}, corruptErr(step, "fetch", "", errQuarantined)
	}
	if s.arena.pin() != nil {
		s.mu.Unlock()
		return pair{}, closedErr(step)
	}
	jb, cb := st.jBlob, st.cBlob
	out := s.takeFrame()
	s.mu.Unlock()
	defer s.unpinBlobs()

	var elapsed time.Duration
	jp, cp, tensor, err := openPair(step, jb, cb)
	if err == nil {
		dsp := s.ob.rec.Start(s.ob.spanParent(), span.Decompress, step)
		cd.setParent(dsp.ID())
		start := time.Now()
		tensor, err = cd.decode(out, jp, cp, ref.j, ref.c)
		elapsed = time.Since(start)
		dsp.Attr("bytes", int64(len(jb)+len(cb)))
		dsp.Attr("prefetch", boolAttr(prefetch))
		dsp.End()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The frame verified but the codec rejected the payload, or the
		// frame did not verify: either way a degradable corruption.
		s.parkFrame(out)
		s.quarantine(step, st)
		return pair{}, corruptErr(step, "fetch", tensor, err)
	}
	s.stats.DecompressTime += elapsed
	s.ob.decompressSec.AddDuration(elapsed)
	return out, nil
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

// maybePrefetch schedules a background decompression of step-1 using
// step's (resident) plaintext as reference. mu must be held.
func (s *CompressedStore) maybePrefetch(step int) {
	if !s.async || s.pf != nil || step <= 0 || s.arena.closed {
		return
	}
	// Anchor steps are served from their retained plaintext, and their
	// blobs want no reference anyway.
	prev := s.steps[step-1]
	if prev.out.j != nil || prev.pinned {
		return
	}
	ref := s.steps[step].out
	pf := &prefetch{step: step - 1, st: prev, done: make(chan struct{})}
	s.pf = pf
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// A prefetch panic becomes a typed error the owning Fetch
				// reports, naming the step.
				pf.err = &StepError{Step: pf.step, Op: "prefetch", Err: fmt.Errorf("panic: %v", r)}
			}
			close(pf.done)
		}()
		pf.out, pf.err = s.decodeStep(&s.cd, pf.step, pf.st, ref, true)
	}()
}

// joinPrefetch waits for the in-flight prefetch (if any) and installs its
// result. It reports whether that prefetch was for `step`, and its error
// when so.
func (s *CompressedStore) joinPrefetch(step int) (hit bool, err error) {
	s.mu.Lock()
	pf := s.pf
	s.mu.Unlock()
	if pf == nil {
		return false, nil
	}
	<-pf.done
	s.mu.Lock()
	s.pf = nil
	if pf.err == nil {
		pf.st.out = pf.out
		s.bumpResident(s.frameBytes)
	}
	s.mu.Unlock()
	if pf.step == step {
		return true, pf.err
	}
	return false, nil
}

// Fetch implements Store. Steps must be fetched in reverse order; each
// decompression uses the plaintext of step i+1 as its reference, except at
// an anchor, which is copied from its retained frame. In async mode the
// common case is a hit on the background prefetch, and fetching step i kicks
// off the prefetch of step i-1. The returned frames are the store's own and
// go back to its pool on Release.
func (s *CompressedStore) Fetch(step int) ([]float64, []float64, error) {
	// Join any in-flight prefetch first: it is either our step (the hit
	// path) or must finish before we may run another decompression.
	wasPrefetched, err := s.joinPrefetch(step)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	switch {
	case s.ferr != nil:
		err = s.ferr
	case s.arena.closed:
		err = closedErr(step)
	case !s.sealedLocked():
		err = &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	case step < 0 || step >= len(s.steps):
		err = fmt.Errorf("jactensor: fetch step %d of %d", step, len(s.steps))
	}
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	st := s.steps[step]
	if out := st.out; out.j != nil {
		s.maybePrefetch(step)
		s.mu.Unlock()
		s.ob.fetches.Inc()
		if wasPrefetched {
			s.ob.prefetchHits.Inc()
		}
		return out.j, out.c, nil
	}
	var out, ref pair
	if st.pinned {
		if master := s.anchorLocked(st); master.j != nil {
			out = s.copyFrame(master)
		}
	} else if step+1 < len(s.steps) {
		if ref = s.steps[step+1].out; ref.j == nil {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: step %d needs step %d resident", ErrOutOfOrder, step, step+1)
		}
	}
	s.mu.Unlock()

	if out.j == nil {
		if out, err = s.decodeStep(&s.cd, step, st, ref, false); err != nil {
			return nil, nil, err
		}
		if s.async {
			s.ob.prefetchMiss.Inc()
		}
	}
	s.ob.fetches.Inc()
	s.mu.Lock()
	st.out = out
	s.bumpResident(s.frameBytes)
	s.maybePrefetch(step)
	s.mu.Unlock()
	return out.j, out.c, nil
}

// Repair implements Repairer: it installs recomputed plaintext for a
// quarantined step, which both serves later fetches of the step and — the
// part that keeps the chained store alive — restores the decompression
// reference step-1 needs.
func (s *CompressedStore) Repair(step int, jVals, cVals []float64) {
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < 0 || step >= len(s.steps) {
		return // closed, or never stored
	}
	st := s.steps[step]
	s.giveBack(&st.out)
	st.out = s.copyFrame(pair{jVals, cVals})
	s.bumpResident(s.frameBytes)
	s.heal(st)
}

// Release implements Store: the step's plaintext frame goes back to the pool
// for the next Fetch to decode into. An anchor's retained frame stays, so the
// same store can be swept or sliced again.
func (s *CompressedStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step >= 0 && step < len(s.steps) {
		s.giveBack(&s.steps[step].out)
	}
}

// Stats implements Store.
func (s *CompressedStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Store. In async mode it shuts the pipeline down, even
// when the forward pass was abandoned before EndForward. The blobs' memory
// is returned now, or — when a window slice or an abandoned fetcher is still
// reading one — by that reader's unpin; every later Fetch fails with
// ErrClosed. Idempotent.
func (s *CompressedStore) Close() error {
	s.mu.Lock()
	s.forwardDone = true
	s.mu.Unlock()
	_ = s.drain()             // reported below
	_, _ = s.joinPrefetch(-1) // no step is wanted: the error has no taker
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeCore()
	s.trial = nil
	return s.ferr
}

// AnchorSteps returns the chain-cut layout of the finished forward pass:
// every interior anchor step that still holds its frame, in ascending order,
// with the head step n appended (the head's plaintext is retained by
// EndForward, so it behaves as the top anchor). Windowed sweeps slice the
// trajectory at exactly these steps. Returns nil before EndForward.
func (s *CompressedStore) AnchorSteps() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anchorMenu(func(st *stepRec) bool { return st.j != nil })
}

// PredictorStats returns the predictor-selection statistics accumulated by
// the first-tensor (G in the facade) and C codecs, when the store was built
// over masczip compressors with Options.CollectStats enabled (ok reports both conditions). In async
// mode call it only after EndForward or Close, once the worker has
// drained.
func (s *CompressedStore) PredictorStats() (j, c masczip.Stats, ok bool) {
	type statser interface{ Stats() masczip.Stats }
	js, okJ := s.cd.j.(statser)
	cs, okC := s.cd.c.(statser)
	if !okJ || !okC {
		return j, c, false
	}
	j, c = js.Stats(), cs.Stats()
	// CollectStats off leaves the counters at zero; report !ok so callers
	// can distinguish "no data" from "all-zero data".
	if j.Elements == 0 && c.Elements == 0 {
		return j, c, false
	}
	return j, c, true
}
