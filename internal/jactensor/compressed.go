package jactensor

import (
	"fmt"
	"sync"
	"time"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/compress/varint"
	"masc/internal/faultinject"
	"masc/internal/obs/span"
	"masc/internal/sparse"
)

// CompressedStore holds the tensor in memory as per-step compressed blobs,
// following Algorithm 2 of the paper: during forward integration step t's
// Put compresses step t-1 using step t as the prediction reference; during
// the reverse sweep step i is decompressed using the already-materialized
// step i+1, whose memory is freed by Release.
//
// In async mode (NewCompressedStoreAsync) the compression runs on a
// persistent background worker behind a bounded queue, so Put returns as
// soon as the incoming values are copied and the solver proceeds to step
// t+1 while step t-1 compresses; symmetrically, the reverse sweep
// prefetches step i-1 on a background goroutine while the adjoint solve
// consumes step i. The blob sequence is byte-identical to sync mode: the
// worker performs exactly the same Compress calls in the same order.
type CompressedStore struct {
	jc, cc compress.Compressor

	// Sealed blobs, one pair per compressed step. They are slices into the
	// arena, not heap objects: off the Go heap on unix, so the GC pacer sizes
	// its headroom on the plaintext working set alone (DESIGN.md, "Modelled
	// vs real memory"). frameJ/frameC are the scratch frames Compress
	// appends into before the sealed result is copied to the arena at its
	// exact length; only the compression path touches them, and that is
	// serialized per store (the caller in sync mode, the single worker in
	// async mode, EndForward after the drain).
	arena          blobArena
	jBlobs, cBlobs [][]byte
	frameJ, frameC []byte
	lastJ, lastC   []float64 // plaintext of the highest Put step
	jLen, cLen     int       // per-step value counts
	n              int       // highest step put; -1 before first Put
	forwardDone    bool

	// Reverse-sweep plaintext cache: at most two live steps (plus one
	// in-flight prefetch in async mode).
	plainJ, plainC map[int][]float64

	// Window anchors: steps at which the prediction chain was cut. Each
	// anchor's plaintext stays resident (CRC-checked like MemStore frames)
	// so a window-local reverse sweep can start there without decoding the
	// whole chain above it; its blob is compressed with no reference, so a
	// rotted anchor degrades to a self-contained blob decode instead of an
	// error.
	anchorEvery            int
	anchorJ, anchorC       map[int][]float64
	anchorJSum, anchorCSum map[int]uint32

	stats    Stats
	resident int64

	// mu guards every field above that a worker, prefetch, window slice or
	// abandoned fetcher goroutine can touch (arena, blobs, stats, resident,
	// plain maps, pools, ferr). A sync store's forward pass takes it only to
	// move sealed blobs into the arena; its reverse sweep takes it like the
	// async one does, uncontended.
	async   bool
	mu      sync.Mutex
	jobs    chan fwdJob
	wkDone  chan struct{}
	drained bool  // worker joined (EndForward or Close ran)
	ferr    error // first background error; surfaces on Put/EndForward

	poolJ, poolC [][]float64 // recycled plaintext frames, sync and async alike

	pf *prefetch // at most one in-flight reverse prefetch

	quarantined map[int]bool          // steps whose blobs failed verification
	fault       *faultinject.Injector // nil = fault-free
	ob          storeObs              // telemetry handles; zero value = disabled

	// Codec-level span hooks (masczip), cached from a type assertion in
	// SetSpanScope; nil when the codecs don't trace or spans are off.
	spanJC, spanCC spanCodec
}

// spanCodec is implemented by codecs (masczip) that can record
// encode/decode spans under a per-call parent. The store serializes all
// codec calls, so setting the parent between calls is race-free.
type spanCodec interface {
	SetSpans(*span.Recorder)
	SetSpanParent(span.ID)
}

// setCodecParent points the codecs' next encode/decode span at id.
func (s *CompressedStore) setCodecParent(id span.ID) {
	if s.spanJC != nil {
		s.spanJC.SetSpanParent(id)
	}
	if s.spanCC != nil {
		s.spanCC.SetSpanParent(id)
	}
}

// fwdJob asks the worker to compress step t-1 (cur) against step t (ref).
type fwdJob struct {
	step       int // the step being compressed (t-1)
	curJ, curC []float64
	refJ, refC []float64
	parent     span.ID // span scope snapshotted at Put time (causal trigger)
}

// prefetch is one in-flight background decompression of step `step`.
type prefetch struct {
	step int
	j, c []float64
	err  error
	done chan struct{}
}

// NewCompressedStore builds a synchronous store over the given codecs (jc
// for the first tensor — G in the facade — and cc for the second, C), each
// built on its tensor's pattern. jPat/cPat, when non-nil, contribute the
// one-off shared-index footprint to the stats, matching the paper's
// accounting.
func NewCompressedStore(jc, cc compress.Compressor, jPat, cPat *sparse.Pattern) *CompressedStore {
	s := &CompressedStore{
		jc: jc, cc: cc,
		arena:       blobArena{src: defaultChunks()},
		frameJ:      make([]byte, blobframe.HeaderSize),
		frameC:      make([]byte, blobframe.HeaderSize),
		n:           -1,
		plainJ:      map[int][]float64{},
		plainC:      map[int][]float64{},
		anchorJ:     map[int][]float64{},
		anchorC:     map[int][]float64{},
		anchorJSum:  map[int]uint32{},
		anchorCSum:  map[int]uint32{},
		quarantined: map[int]bool{},
	}
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

// Async reports whether the store runs the pipelined (background
// compression) mode.
func (s *CompressedStore) Async() bool { return s.async }

// SetFault installs a fault injector: blob corruption applies after frames
// are sealed (at-rest rot, caught by the CRC at fetch time) and worker
// panics fire when the async pipeline compresses the configured step. Call
// it before the first Put.
func (s *CompressedStore) SetFault(in *faultinject.Injector) { s.fault = in }

// sealFrame compresses cur against ref (nil = self-contained) into the
// scratch frame behind HeaderSize reserved bytes, seals the frame in place
// and applies any injected at-rest corruption. The result aliases *scratch
// (shortened when the injector truncates) and is valid until the next call.
func (s *CompressedStore) sealFrame(scratch *[]byte, c compress.Compressor, cur, ref []float64, kind byte, step int) []byte {
	*scratch = c.Compress((*scratch)[:blobframe.HeaderSize], cur, ref)
	blobframe.Seal(*scratch, kind, step)
	frame, _ := s.fault.MutateBlob(step, *scratch)
	return frame
}

// compressStep encodes one step's tensors, copies the sealed frames into
// the arena and accounts them; it returns the stored byte count. mu must not
// be held.
func (s *CompressedStore) compressStep(step int, curJ, curC, refJ, refC []float64) (int, error) {
	jf := s.sealFrame(&s.frameJ, s.jc, curJ, refJ, 'J', step)
	cf := s.sealFrame(&s.frameC, s.cc, curC, refC, 'C', step)
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, err := s.arena.append(jf)
	if err != nil {
		return 0, &StepError{Step: step, Op: "compress", Tensor: "J", Err: err}
	}
	cb, err := s.arena.append(cf)
	if err != nil {
		return 0, &StepError{Step: step, Op: "compress", Tensor: "C", Err: err}
	}
	s.jBlobs = append(s.jBlobs, jb)
	s.cBlobs = append(s.cBlobs, cb)
	n := len(jb) + len(cb)
	s.stats.StoredBytes += int64(n)
	s.bumpResident(int64(n))
	s.ob.arenaBytes.Set(float64(s.arena.offHeapBytes()))
	return n, nil
}

// openBlob verifies a stored frame and returns its payload; failures
// quarantine the step (mu must not be held).
func (s *CompressedStore) openBlob(frame []byte, kind byte, step int, tensor string) ([]byte, error) {
	payload, err := blobframe.Open(frame, kind, step)
	if err == nil {
		return payload, nil
	}
	s.mu.Lock()
	s.quarantined[step] = true
	s.stats.CorruptBlobs++
	s.mu.Unlock()
	s.noteQuarantine(step)
	return nil, corruptErr(step, "fetch", tensor, err)
}

// noteQuarantine mirrors one quarantined step into the telemetry handles:
// the corruption counter plus an instant quarantine span.
func (s *CompressedStore) noteQuarantine(step int) {
	s.ob.corrupt.Inc()
	qsp := s.ob.rec.Start(s.ob.spanParent(), span.Quarantine, step)
	qsp.End()
}

// bumpResident adjusts the resident-byte model; callers in async mode must
// hold mu.
func (s *CompressedStore) bumpResident(delta int64) {
	s.resident += delta
	if s.resident > s.stats.PeakResident {
		s.stats.PeakResident = s.resident
	}
	s.ob.observeResident(s.resident)
}

// takeBuf returns a length-n plaintext frame, recycling a pooled one when
// available; the pool's owner serializes access (mu for the compressed
// store). Pooled frames are idle memory the resident model does not count;
// a frame counts from the moment its holder bumps the model to the matching
// release.
func takeBuf(pool *[][]float64, n int) []float64 {
	if k := len(*pool); k > 0 {
		b := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		if len(b) == n {
			return b
		}
	}
	return make([]float64, n)
}

// copyBuf returns a pooled frame holding a copy of src.
func copyBuf(pool *[][]float64, src []float64) []float64 {
	b := takeBuf(pool, len(src))
	copy(b, src)
	return b
}

// worker drains the forward compression queue. It is the only goroutine
// calling s.jc.Compress / s.cc.Compress, so the (stateful, non-thread-safe)
// codecs see exactly the sync-mode call sequence.
func (s *CompressedStore) worker() {
	defer close(s.wkDone)
	for job := range s.jobs {
		s.runJob(job)
	}
}

func (s *CompressedStore) runJob(job fwdJob) {
	defer func() {
		if r := recover(); r != nil {
			// A worker panic is recorded as a typed error naming the step
			// and surfaces from the next Put, EndForward, Fetch, or Close —
			// never swallowed.
			s.mu.Lock()
			if s.ferr == nil {
				s.ferr = &StepError{Step: job.step, Op: "compress",
					Err: fmt.Errorf("async worker panic: %v", r)}
			}
			s.mu.Unlock()
		}
	}()
	s.mu.Lock()
	failed := s.ferr != nil
	s.mu.Unlock()
	if failed {
		s.recycle(job.curJ, job.curC)
		return
	}
	if s.fault.PanicNow(job.step) {
		panic(fmt.Sprintf("injected worker panic at step %d", job.step))
	}
	// Anchor steps cut the chain exactly as the sync path does: the worker
	// is the only goroutine calling Compress, so the restart lands at the
	// same point in the codec's call sequence and the blob stream stays
	// byte-identical to sync mode.
	cut := s.isAnchorStep(job.step)
	refJ, refC := job.refJ, job.refC
	if cut {
		s.restartCodecs()
		refJ, refC = nil, nil
	}
	csp := s.ob.rec.Start(job.parent, span.Compress, job.step)
	s.setCodecParent(csp.ID())
	start := time.Now()
	stored, err := s.compressStep(job.step, job.curJ, job.curC, refJ, refC)
	elapsed := time.Since(start)
	csp.Attr("bytes", int64(stored))
	csp.Attr("anchor", boolAttr(cut))
	csp.End()
	s.mu.Lock()
	if err != nil {
		if s.ferr == nil {
			s.ferr = err
		}
		s.mu.Unlock()
		s.recycle(job.curJ, job.curC)
		return
	}
	s.stats.CompressTime += elapsed
	if cut {
		// Retain the buffers as the anchor frame instead of recycling
		// them; they are already counted resident from putAsync's
		// checkout.
		s.retainAnchorLocked(job.step, job.curJ, job.curC, false)
	}
	s.mu.Unlock()
	s.observeCompress(elapsed, stored)
	s.ob.queueDepth.Set(float64(len(s.jobs)))
	if !cut {
		s.recycle(job.curJ, job.curC)
	}
}

// observeCompress mirrors one compressed step into the telemetry handles
// (no-op when detached).
func (s *CompressedStore) observeCompress(d time.Duration, bytes int) {
	s.ob.compressSec.AddDuration(d)
	s.ob.storedBytes.Add(float64(bytes))
	s.ob.blobBytes.Observe(float64(bytes))
}

// recycle returns a consumed plaintext pair to the buffer pool.
func (s *CompressedStore) recycle(j, c []float64) {
	s.mu.Lock()
	s.poolJ = append(s.poolJ, j)
	s.poolC = append(s.poolC, c)
	s.bumpResident(-int64(8 * (len(j) + len(c))))
	s.mu.Unlock()
}

// Put implements Store.
func (s *CompressedStore) Put(step int, jVals, cVals []float64) error {
	if s.async {
		return s.putAsync(step, jVals, cVals)
	}
	if s.forwardDone {
		return fmt.Errorf("jactensor: Put after EndForward")
	}
	if step != s.n+1 {
		return fmt.Errorf("jactensor: put step %d out of order (expected %d)", step, s.n+1)
	}
	if step == 0 {
		s.jLen, s.cLen = len(jVals), len(cVals)
	} else if len(jVals) != s.jLen || len(cVals) != s.cLen {
		return fmt.Errorf("jactensor: step %d value counts changed (%d/%d vs %d/%d)",
			step, len(jVals), len(cVals), s.jLen, s.cLen)
	}
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	start := time.Now()
	if step > 0 {
		// Compress M_{t-1} with M_t as the prediction reference — unless
		// t-1 is an anchor, where the chain cuts: the blob is
		// self-contained and the plaintext is retained for windowed
		// sweeps.
		refJ, refC := jVals, cVals
		if s.isAnchorStep(step - 1) {
			s.restartCodecs()
			refJ, refC = nil, nil
		}
		csp := s.ob.rec.Start(psp.ID(), span.Compress, step-1)
		s.setCodecParent(csp.ID())
		stored, err := s.compressStep(step-1, s.lastJ, s.lastC, refJ, refC)
		csp.Attr("bytes", int64(stored))
		csp.End()
		if err != nil {
			psp.End()
			return err
		}
		if s.isAnchorStep(step - 1) {
			s.retainAnchorLocked(step-1,
				append([]float64(nil), s.lastJ...),
				append([]float64(nil), s.lastC...), true)
		}
		s.observeCompress(time.Since(start), stored)
	} else {
		s.lastJ = make([]float64, len(jVals))
		s.lastC = make([]float64, len(cVals))
		s.bumpResident(int64(8 * (len(jVals) + len(cVals))))
	}
	copy2 := func(dst *[]float64, src []float64) {
		if len(*dst) != len(src) {
			*dst = make([]float64, len(src))
		}
		copy(*dst, src)
	}
	copy2(&s.lastJ, jVals)
	copy2(&s.lastC, cVals)
	s.n = step
	s.stats.Steps++
	s.stats.RawBytes += int64(8 * (len(jVals) + len(cVals)))
	s.stats.CompressTime += time.Since(start)
	s.ob.puts.Inc()
	s.ob.rawBytes.Add(float64(8 * (len(jVals) + len(cVals))))
	psp.End()
	return nil
}

// putAsync double-buffers the incoming values and hands the "compress
// M_{t-1} against M_t" job to the worker, so the caller immediately
// proceeds to the next timestep. Worker errors surface here (and on
// EndForward), one Put late at worst.
func (s *CompressedStore) putAsync(step int, jVals, cVals []float64) error {
	s.mu.Lock()
	if err := s.ferr; err != nil {
		s.mu.Unlock()
		return err
	}
	if s.forwardDone {
		s.mu.Unlock()
		return fmt.Errorf("jactensor: Put after EndForward")
	}
	if step != s.n+1 {
		s.mu.Unlock()
		return fmt.Errorf("jactensor: put step %d out of order (expected %d)", step, s.n+1)
	}
	if step == 0 {
		s.jLen, s.cLen = len(jVals), len(cVals)
	} else if len(jVals) != s.jLen || len(cVals) != s.cLen {
		s.mu.Unlock()
		return fmt.Errorf("jactensor: step %d value counts changed (%d/%d vs %d/%d)",
			step, len(jVals), len(cVals), s.jLen, s.cLen)
	}
	jb := takeBuf(&s.poolJ, len(jVals))
	cb := takeBuf(&s.poolC, len(cVals))
	s.bumpResident(int64(8 * (len(jVals) + len(cVals))))
	s.mu.Unlock()

	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	copy(jb, jVals)
	copy(cb, cVals)
	if step > 0 {
		// The put span is the causal trigger for compressing step-1, so
		// the worker parents its compress span under it.
		job := fwdJob{step: step - 1, curJ: s.lastJ, curC: s.lastC, refJ: jb, refC: cb, parent: psp.ID()}
		select {
		case s.jobs <- job:
		default:
			// Queue full: the compressor is the bottleneck right now.
			// Account the wait so the overlap experiment can report how
			// much compression latency leaked back onto the solver.
			start := time.Now()
			s.jobs <- job
			stall := time.Since(start)
			s.mu.Lock()
			s.stats.StallTime += stall
			s.mu.Unlock()
			s.ob.stallSec.AddDuration(stall)
			psp.Attr("stall_ns", int64(stall))
		}
	}
	s.lastJ, s.lastC = jb, cb

	s.mu.Lock()
	s.n = step
	s.stats.Steps++
	s.stats.RawBytes += int64(8 * (len(jVals) + len(cVals)))
	s.mu.Unlock()
	s.ob.puts.Inc()
	s.ob.rawBytes.Add(float64(8 * (len(jVals) + len(cVals))))
	depth := len(s.jobs)
	s.ob.queueDepth.Set(float64(depth))
	psp.Attr("queue", int64(depth))
	psp.End()
	return nil
}

// EndForward implements Store: the final step is compressed with no
// reference so the reverse chain has a self-contained head. In async mode
// it first drains the compression queue.
func (s *CompressedStore) EndForward() error {
	s.mu.Lock()
	if s.forwardDone {
		s.mu.Unlock()
		return nil
	}
	if s.n < 0 {
		s.mu.Unlock()
		return fmt.Errorf("jactensor: EndForward with no steps")
	}
	// Block further Puts before the queue closes.
	s.forwardDone = true
	s.mu.Unlock()

	if s.async {
		close(s.jobs)
		<-s.wkDone
		s.mu.Lock()
		s.drained = true
		err := s.ferr
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	csp := s.ob.rec.Start(s.ob.spanParent(), span.Compress, s.n)
	s.setCodecParent(csp.ID())
	start := time.Now()
	stored, err := s.compressStep(s.n, s.lastJ, s.lastC, nil, nil)
	csp.Attr("bytes", int64(stored))
	csp.End()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.CompressTime += time.Since(start)
	// The plaintext of the last step stays resident as the chain head.
	s.plainJ[s.n] = s.lastJ
	s.plainC[s.n] = s.lastC
	s.lastJ, s.lastC = nil, nil
	s.mu.Unlock()
	s.observeCompress(time.Since(start), stored)
	return nil
}

// sealedLocked reports whether the forward pass has ended and every step's
// blob is stored — the precondition of Fetch and Slice. mu must be held.
func (s *CompressedStore) sealedLocked() bool {
	return s.forwardDone && len(s.jBlobs) == s.n+1
}

// checkoutLocked pins the arena and returns step's sealed blobs plus two
// pooled plaintext frames to decode them into. The caller reads the blobs
// outside the lock and must call unpinBlobs when it has finished with them.
// It fails with ErrClosed once Close has run. mu must be held.
func (s *CompressedStore) checkoutLocked(step int) (jBlob, cBlob []byte, jv, cv []float64, err error) {
	if s.quarantined[step] {
		return nil, nil, nil, nil, corruptErr(step, "fetch", "", errAlreadyQuarantined)
	}
	if err := s.arena.pin(); err != nil {
		return nil, nil, nil, nil, closedErr(step)
	}
	return s.jBlobs[step], s.cBlobs[step], takeBuf(&s.poolJ, s.jLen), takeBuf(&s.poolC, s.cLen), nil
}

// unpinBlobs ends a checkoutLocked read; after Close, the last one returns
// the arena's memory.
func (s *CompressedStore) unpinBlobs() {
	s.mu.Lock()
	s.arena.unpin()
	if s.arena.closed {
		s.ob.arenaBytes.Set(float64(s.arena.offHeapBytes()))
	}
	s.mu.Unlock()
}

// decompressStep inflates step's blobs against the given references into
// frames checked out of the pool. At most one call runs at a time (Fetch
// joins any in-flight prefetch first), so the codecs' scratch state is safe.
// prefetch marks the span of a background decode ahead of the sweep.
func (s *CompressedStore) decompressStep(step int, refJ, refC []float64, prefetch bool) ([]float64, []float64, error) {
	s.mu.Lock()
	jBlob, cBlob, jv, cv, err := s.checkoutLocked(step)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	defer s.unpinBlobs()
	jPayload, err := s.openBlob(jBlob, 'J', step, "J")
	if err != nil {
		return nil, nil, err
	}
	cPayload, err := s.openBlob(cBlob, 'C', step, "C")
	if err != nil {
		return nil, nil, err
	}
	dsp := s.ob.rec.Start(s.ob.spanParent(), span.Decompress, step)
	s.setCodecParent(dsp.ID())
	start := time.Now()
	if err := s.jc.Decompress(jv, jPayload, refJ); err != nil {
		dsp.End()
		return nil, nil, s.decodeFailed(step, "J", err)
	}
	if err := s.cc.Decompress(cv, cPayload, refC); err != nil {
		dsp.End()
		return nil, nil, s.decodeFailed(step, "C", err)
	}
	elapsed := time.Since(start)
	dsp.Attr("bytes", int64(len(jBlob)+len(cBlob)))
	dsp.Attr("prefetch", boolAttr(prefetch))
	dsp.End()
	s.mu.Lock()
	s.stats.DecompressTime += elapsed
	s.mu.Unlock()
	s.ob.decompressSec.AddDuration(elapsed)
	return jv, cv, nil
}

var errAlreadyQuarantined = fmt.Errorf("step is quarantined")

// decodeFailed records a decode failure (the frame verified, but the codec
// rejected the payload) as a quarantined, degradable corruption.
func (s *CompressedStore) decodeFailed(step int, tensor string, err error) error {
	s.mu.Lock()
	s.quarantined[step] = true
	s.stats.CorruptBlobs++
	s.mu.Unlock()
	s.noteQuarantine(step)
	return corruptErr(step, "fetch", tensor, err)
}

// maybePrefetch schedules a background decompression of step-1 using
// step's (resident) plaintext as reference. mu must be held.
func (s *CompressedStore) maybePrefetch(step int) {
	if !s.async || s.pf != nil || step <= 0 {
		return
	}
	prev := step - 1
	if _, ok := s.plainJ[prev]; ok {
		return
	}
	// Anchor steps are served from their retained plaintext, and their
	// blobs want a nil reference anyway — skip the prefetch.
	if s.isAnchorStep(prev) {
		return
	}
	refJ, refC := s.plainJ[step], s.plainC[step]
	pf := &prefetch{step: prev, done: make(chan struct{})}
	s.pf = pf
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// A prefetch panic becomes a typed error the owning Fetch
				// reports, naming the step.
				pf.err = &StepError{Step: pf.step, Op: "prefetch",
					Err: fmt.Errorf("panic: %v", r)}
			}
			close(pf.done)
		}()
		pf.j, pf.c, pf.err = s.decompressStep(pf.step, refJ, refC, true)
	}()
}

// joinPrefetch waits for the in-flight prefetch (if any) and materializes
// its result. It reports whether that prefetch was for `step`, and its error
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
		s.plainJ[pf.step] = pf.j
		s.plainC[pf.step] = pf.c
		s.bumpResident(int64(8 * (len(pf.j) + len(pf.c))))
	}
	s.mu.Unlock()
	if pf.step == step {
		return true, pf.err
	}
	return false, nil
}

// Fetch implements Store. Steps must be fetched in reverse order; each
// decompression uses the plaintext of step i+1 as its reference. In async
// mode the common case is a hit on the background prefetch, and fetching
// step i kicks off the prefetch of step i-1. The returned frames are the
// store's own and go back to its pool on Release.
func (s *CompressedStore) Fetch(step int) ([]float64, []float64, error) {
	// Join any in-flight prefetch first: it is either our step (the hit
	// path) or must finish before we may run another decompression.
	wasPrefetched, err := s.joinPrefetch(step)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	if err := s.ferr; err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	if s.arena.closed {
		s.mu.Unlock()
		return nil, nil, closedErr(step)
	}
	if !s.sealedLocked() {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("jactensor: Fetch before EndForward")
	}
	if step < 0 || step > s.n {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("jactensor: fetch step %d of %d", step, s.n)
	}
	if j, ok := s.plainJ[step]; ok {
		c := s.plainC[step]
		s.maybePrefetch(step)
		s.mu.Unlock()
		s.ob.fetches.Inc()
		if wasPrefetched {
			s.ob.prefetchHits.Inc()
		}
		return j, c, nil
	}
	anchored := s.isAnchorStep(step)
	var refJ, refC []float64
	if step < s.n && !anchored {
		var ok bool
		refJ, ok = s.plainJ[step+1]
		if !ok {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: step %d needs step %d resident", ErrOutOfOrder, step, step+1)
		}
		refC = s.plainC[step+1]
	}
	s.mu.Unlock()

	if anchored {
		if jv, cv, ok := s.fetchAnchor(step); ok {
			return jv, cv, nil
		}
		// Rotted anchor: decode its self-contained blob instead.
	}
	jv, cv, err := s.decompressStep(step, refJ, refC, false)
	if err != nil {
		return nil, nil, err
	}
	s.ob.fetches.Inc()
	if s.async {
		s.ob.prefetchMiss.Inc()
	}
	s.mu.Lock()
	s.plainJ[step] = jv
	s.plainC[step] = cv
	s.bumpResident(int64(8 * (len(jv) + len(cv))))
	s.maybePrefetch(step)
	s.mu.Unlock()
	return jv, cv, nil
}

// Repair implements Repairer: it installs recomputed plaintext for a
// quarantined step, which both serves later fetches of the step and — the
// part that keeps the chained store alive — restores the decompression
// reference step-1 needs.
func (s *CompressedStore) Repair(step int, jVals, cVals []float64) {
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	// Locked unconditionally: windowed sweeps repair through their slices
	// concurrently even over a sync store.
	s.mu.Lock()
	defer s.mu.Unlock()
	jv := copyBuf(&s.poolJ, jVals)
	cv := copyBuf(&s.poolC, cVals)
	s.plainJ[step] = jv
	s.plainC[step] = cv
	s.bumpResident(int64(8 * (len(jv) + len(cv))))
	delete(s.quarantined, step)
	s.stats.Repairs++
}

// Release implements Store: the step's plaintext frames go back to the pool
// for the next Fetch to decode into.
func (s *CompressedStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.plainJ[step]; ok {
		s.bumpResident(-int64(8 * len(v)))
		s.poolJ = append(s.poolJ, v)
		delete(s.plainJ, step)
	}
	if v, ok := s.plainC[step]; ok {
		s.bumpResident(-int64(8 * len(v)))
		s.poolC = append(s.poolC, v)
		delete(s.plainC, step)
	}
}

// Stats implements Store.
func (s *CompressedStore) Stats() Stats {
	// Locked unconditionally: slice fetches mutate stats under mu even
	// when the store itself is synchronous.
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
	if s.async {
		s.mu.Lock()
		needDrain := !s.drained
		s.forwardDone = true
		s.mu.Unlock()
		if needDrain {
			close(s.jobs)
			<-s.wkDone
			s.mu.Lock()
			s.drained = true
			s.mu.Unlock()
		}
		_, _ = s.joinPrefetch(-1) // no step is wanted: the error has no taker
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arena.close()
	s.ob.arenaBytes.Set(float64(s.arena.offHeapBytes()))
	s.jBlobs, s.cBlobs = nil, nil
	// Emptied, not nilled: a late Repair or fetch install from a goroutine
	// that outlived the run must not hit a nil map.
	clear(s.plainJ)
	clear(s.plainC)
	clear(s.anchorJ)
	clear(s.anchorC)
	s.poolJ, s.poolC = nil, nil
	return s.ferr
}
