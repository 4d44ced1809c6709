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
// as per-step sealed blobs, following Algorithm 2 of the paper, with one
// difference. There a step is predicted from the next one; here from as many
// of the steps above it as the codecs read (cd.depth: seven for masczip, whose
// temporal candidate extrapolates; one for a one-reference codec). During
// forward integration the store therefore holds a window of the depth+1 newest
// plaintext frames, and Put of step t+depth seals step t against frames
// t+1…t+depth; EndForward seals the tail against what is above it. During the
// reverse sweep step i is decompressed against the already-materialized steps
// i+1…i+depth, which the store keeps after the sweep's Release until the sweep
// is depth steps below them. Consecutive frames of a tensor that are
// bit-identical share one array, so a tensor that does not move costs the
// window one frame.
//
// Every k-th step can be made a window anchor (SetAnchorEvery): the chain is
// cut there — the anchor's blob is compressed with no reference and restarted
// codecs, no step's history reaches past the nearest anchor above it — and its
// plaintext stays resident as a checksummed frame, so a window-local reverse
// sweep (StoreSlice) can start at it without decoding the chain above. A
// rotted anchor frame is dropped and the step served from its self-contained
// blob: a slower fetch, not an error.
//
// In async mode (NewCompressedStoreAsync) the compression runs on a
// persistent background worker behind a bounded queue, so Put returns as
// soon as the incoming values are copied and the solver proceeds while the
// due step compresses; symmetrically, the reverse sweep prefetches step i-1
// on a background goroutine while the adjoint solve consumes step i. The blob
// sequence is byte-identical to sync mode: both run the same runJob calls in
// the same order, the worker merely elsewhere.
//
// Built by NewAutoStore, the store starts with no codecs: it parks the first
// TrialSteps frames, trials the candidate menu on them, binds the winner and
// replays the parked frames through put (auto.go).
type CompressedStore struct {
	core
	issued int // steps whose seal job has been issued; only Put and EndForward's caller touches it
	at     int // the lowest step the reverse sweep has fetched

	trial    *autoTrial // non-nil while the codecs are unbound
	selected string     // the codec a trial bound, and its scorecards
	trials   []compress.TrialResult

	// mu guards everything above that a worker, prefetch, window slice or
	// abandoned fetcher goroutine can touch (steps and their records, arena,
	// stats, resident, pools, ferr). Codec calls run outside it: the forward
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

// fwdJob asks for step's held plaintext to be sealed against the frames above
// it.
type fwdJob struct {
	step   int
	st     *stepRec
	head   bool    // the last step: its plaintext stays, as the first frame the sweep reads
	parent span.ID // the span that caused the job (a later step's put)
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
	x := s.stateOf(step)
	if s.trial != nil {
		return s.park(jVals, cVals, x)
	}
	return s.put(step, jVals, cVals, x)
}

// put takes an admitted step and the state it was produced at (nil = none):
// its values join the history window, and the step depth below it, whose
// history is now complete, is sealed. The two modes differ in one thing only —
// sync runs that job here; async hands it to the worker, so the caller
// proceeds to the next timestep at once and a worker error surfaces one Put
// late at worst.
func (s *CompressedStore) put(step int, jVals, cVals, x []float64) error {
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	defer psp.End()
	// The chain cuts at an anchor: its blob is self-contained and its
	// plaintext retained. The head is never one (EndForward clears the mark).
	st := s.newRec(step)
	st.x = x
	s.mu.Lock()
	var below pair
	if step > 0 {
		below = s.steps[step-1].out // unsealed, so held: its job is issued by this Put at the earliest
	}
	s.mu.Unlock()
	sameJ, sameC := below.j != nil && sameBits(jVals, below.j), below.c != nil && sameBits(cVals, below.c)
	s.mu.Lock()
	st.out = pair{s.adopt(&s.poolJ, jVals, below.j, sameJ), s.adopt(&s.poolC, cVals, below.c, sameC)}
	s.steps = append(s.steps, st)
	s.mu.Unlock()

	if due := step - s.cd.depth; due >= 0 {
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

// adopt returns a held array with vals' values: the step below's own when the
// two are bit-identical, else a counted copy. mu must be held.
func (s *CompressedStore) adopt(pool *[][]float64, vals, below []float64, same bool) []float64 {
	if same {
		s.hold(below)
		return below
	}
	v := takeVals(pool, len(vals))
	copy(v, vals)
	s.bumpResident(int64(8 * len(v)))
	return v
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
			s.giveBack(&job.st.out)
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

// held implements frames over the store's own window.
func (s *CompressedStore) held(step int) *heldFrame {
	if step < 0 || step >= len(s.steps) {
		return nil
	}
	return &s.steps[step].heldFrame
}

// frames is the plaintext window a seal or a reverse sweep reads its history
// from, by step: the step records for the forward pass and the store's own
// sweep, a slice's private cache for a window sweep. held is nil outside it.
type frames interface{ held(step int) *heldFrame }

// gather collects in cd's scratch, nearest first, the frames of w that step's
// blob is — or was — sealed against: up to cd.depth resident ones above it,
// none past the nearest anchor (an anchor itself has none), so a window slice
// that starts at that anchor sees the history the forward pass did; and the
// states of step and of those frames' steps, when every one of them has one.
// It also meters what the history costs beyond the one frame a one-reference
// chain holds: the bytes of the distinct arrays past the nearest (the states
// are the caller's, not the store's). mu must be held.
func (s *CompressedStore) gather(cd *codecs, w frames, step int) history {
	h := history{j: cd.hist.j[:0], c: cd.hist.c[:0]}
	extra := int64(0)
	for t := step + 1; t <= step+cd.depth && !s.steps[t-1].pinned; t++ {
		f := w.held(t)
		if f == nil || f.out.j == nil {
			break
		}
		if n := len(h.j); n > 0 {
			extra += distinctBytes(f.out.j, h.j[n-1]) + distinctBytes(f.out.c, h.c[n-1])
		}
		h.j, h.c = append(h.j, f.out.j), append(h.c, f.out.c)
	}
	s.stats.HistoryBytes = max(s.stats.HistoryBytes, extra)
	if len(h.j) > 0 {
		h.x = cd.hist.x[:0]
		for t := step; t <= step+len(h.j); t++ {
			if s.steps[t].x == nil {
				h.x = nil
				break
			}
			h.x = append(h.x, s.steps[t].x)
		}
	}
	return h
}

// distinctBytes is v's size unless it is the array prev.
func distinctBytes(v, prev []float64) int64 {
	if len(v) == 0 || &v[0] == &prev[0] {
		return 0
	}
	return int64(8 * len(v))
}

// runJob is the forward step of Algorithm 2, the same in both modes: seal
// job.step against the frames above it — or, at an anchor, against nothing and
// with restarted codecs — keep the blobs, account them, retain an anchor's
// plaintext and let the step's frame go. mu must not be held.
func (s *CompressedStore) runJob(job fwdJob) error {
	st := job.st
	cut := st.pinned
	if cut {
		s.cd.restart()
	}
	s.mu.Lock()
	cur, h := st.out, s.gather(&s.cd, s, job.step)
	s.mu.Unlock()
	csp := s.ob.rec.Start(job.parent, span.Compress, job.step)
	s.cd.setParent(csp.ID())
	start := time.Now()
	jb, cb := s.seal(job.step, cur, h)
	stored := len(jb) + len(cb)

	s.mu.Lock()
	tensor, err := s.keep(st, jb, cb)
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
			// The anchor is a counted private copy: the window's frame may be
			// the next step's too, and the fault window mutates an anchor.
			s.admitFrame(job.step, st, s.copyFrame(cur))
			s.bumpResident(s.frameBytes)
			s.stats.AnchorBytes += s.frameBytes
			s.ob.anchorBytes.Set(float64(s.stats.AnchorBytes))
		}
		if !job.head {
			s.giveBack(&st.out)
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

// EndForward implements Store: the steps still waiting for their history are
// sealed against what is above them, the final step with no reference, so the
// reverse chain has a self-contained head, and its plaintext stays resident as
// the first frame the sweep reads. A trial still pending (a run shorter than
// its window) binds first; in async mode the compression queue drains first.
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
	s.steps[n].pinned = false
	s.at = n
	s.mu.Unlock()
	for ; s.issued <= n; s.issued++ {
		// The worker is gone, but its jobs keep its panic guard.
		run := s.runJob
		if s.async {
			run = s.guarded
		}
		if err := run(fwdJob{step: s.issued, st: s.steps[s.issued], head: s.issued == n, parent: s.ob.spanParent()}); err != nil {
			return err
		}
	}
	return nil
}

// sealedLocked reports whether the forward pass has ended and every step's
// blob is stored — the precondition of Fetch and Slice. mu must be held.
func (s *CompressedStore) sealedLocked() bool {
	n := len(s.steps)
	return s.forwardDone && n > 0 && s.steps[n-1].jBlob != nil
}

// drop ends one frame's hold on v: an array nothing else holds leaves the
// resident model and goes back to its pool. mu must be held.
func (s *CompressedStore) drop(pool *[][]float64, v []float64) {
	if s.letGo(v) {
		s.bumpResident(int64(-8 * len(v)))
		s.parkVals(pool, v)
	}
}

// giveBack ends a window frame's hold on its arrays. mu must be held.
func (s *CompressedStore) giveBack(p *pair) {
	if p.j != nil {
		s.drop(&s.poolJ, p.j)
		s.drop(&s.poolC, p.c)
		*p = pair{}
	}
}

// share makes *v — a counted array nothing else holds — the neighbouring
// step's array other, whose values are bit-identical, and returns *v's own to
// the pool. mu must be held.
func (s *CompressedStore) share(pool *[][]float64, v *[]float64, other []float64) {
	s.drop(pool, *v)
	s.hold(other)
	*v = other
}

// dead reports whether step's frame is one no decode will read again. The
// sweep over [lo, …] stands at step at: the next decode, of at−1, reads
// at…at+depth−1, so at+depth and above are dead — and at lo everything is.
func (cd *codecs) dead(step, at, lo int) bool { return step >= at+cd.depth || at == lo }

// trim lets go of the released frames of w that died when the sweep over
// [lo, …] reached at. mu must be held.
func (s *CompressedStore) trim(cd *codecs, w frames, at, lo int) {
	for t := at; t <= at+cd.depth; t++ {
		if f := w.held(t); f != nil && f.released && cd.dead(t, at, lo) {
			s.giveBack(&f.out)
		}
	}
}

// retire is Release: the sweep is done with f, step's frame, which goes at once
// if it is dead already and when the sweep gets far enough below it otherwise.
// mu must be held.
func (s *CompressedStore) retire(cd *codecs, f *heldFrame, step, at, lo int) {
	if f.released = true; cd.dead(step, at, lo) {
		s.giveBack(&f.out)
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
// slice's forks) against h into a pooled frame, and quarantine the step on
// any failure. The frame comes back counted, and sharing the arrays of the
// nearest history frame where the values are bit-identical; it is the caller's
// to install. At most one call runs per codec pair at a time; prefetch marks
// the span of a background decode ahead of the sweep. mu must not be held.
func (s *CompressedStore) decodeStep(cd *codecs, step int, st *stepRec, h history, prefetch bool) (pair, error) {
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
	var above pair
	var sameJ, sameC bool
	jp, cp, tensor, err := openPair(step, jb, cb)
	if err == nil {
		dsp := s.ob.rec.Start(s.ob.spanParent(), span.Decompress, step)
		cd.setParent(dsp.ID())
		start := time.Now()
		tensor, err = cd.decode(out, jp, cp, h)
		elapsed = time.Since(start)
		dsp.Attr("bytes", int64(len(jb)+len(cb)))
		dsp.Attr("prefetch", boolAttr(prefetch))
		dsp.End()
		if err == nil && len(h.j) > 0 {
			above = pair{h.j[0], h.c[0]}
			sameJ, sameC = sameBits(out.j, above.j), sameBits(out.c, above.c)
		}
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
	s.bumpResident(s.frameBytes)
	if sameJ {
		s.share(&s.poolJ, &out.j, above.j)
	}
	if sameC {
		s.share(&s.poolC, &out.c, above.c)
	}
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

// maybePrefetch schedules a background decompression of step-1 against the
// (resident) frames from step up. mu must be held.
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
	h := s.gather(&s.cd, s, step-1)
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
		pf.out, pf.err = s.decodeStep(&s.cd, pf.step, pf.st, h, true)
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
		pf.st.heldFrame = heldFrame{out: pf.out}
	}
	s.mu.Unlock()
	if pf.step == step {
		return true, pf.err
	}
	return false, nil
}

// Fetch implements Store. Steps must be fetched in reverse order; each
// decompression reads the plaintext of the steps above it — step i+1 must be
// resident, the deeper ones the store has kept — except at an anchor, which is
// copied from its retained frame. In async mode the common case is a hit on
// the background prefetch, and fetching step i kicks off the prefetch of step
// i-1. The returned frames are the store's own: they stay valid until Release,
// and the store keeps them past it for as long as a lower step decodes against
// them.
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
	if st.out.j != nil {
		s.at = min(s.at, step)
	} else {
		var out pair
		var h history
		if st.pinned {
			if master := s.anchorLocked(st); master.j != nil {
				out = s.copyFrame(master)
				s.bumpResident(s.frameBytes)
			}
		} else if h = s.gather(&s.cd, s, step); len(h.j) == 0 && step+1 < len(s.steps) {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: step %d needs step %d resident", ErrOutOfOrder, step, step+1)
		}
		s.mu.Unlock()

		if out.j == nil {
			if out, err = s.decodeStep(&s.cd, step, st, h, false); err != nil {
				return nil, nil, err
			}
			if s.async {
				s.ob.prefetchMiss.Inc()
			}
		}
		s.mu.Lock()
		st.out, s.at = out, step
	}
	out := st.out
	st.released = false
	s.trim(&s.cd, s, s.at, 0)
	s.maybePrefetch(step)
	s.mu.Unlock()
	s.ob.fetches.Inc()
	if wasPrefetched {
		s.ob.prefetchHits.Inc()
	}
	return out.j, out.c, nil
}

// Repair implements Repairer: it installs recomputed plaintext for a
// quarantined step, which both serves later fetches of the step and — the
// part that keeps the chained store alive — restores the decompression
// history of the steps below it.
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
	st.heldFrame = heldFrame{out: s.copyFrame(pair{jVals, cVals})}
	s.bumpResident(s.frameBytes)
	s.heal(st)
}

// Release implements Store: the sweep is done with the step's frame. It goes
// back to the pool once no lower step decodes against it — at once when the
// sweep is already that far down. An anchor's retained frame stays, so the
// same store can be swept or sliced again.
func (s *CompressedStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.held(step); f != nil {
		s.retire(&s.cd, f, step, s.at, 0)
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
