package jactensor

// The tiered Jacobian store: per-step placement across three rungs
//
//	hot RAM · compressed RAM · deliberate drop-and-recompute
//
// under a hard resident-byte budget. Capture-side, every Put admits the new
// step as a hot frame and, while the modelled resident bytes exceed the
// budget, moves the lowest hot step to the rung it will stay on: its final
// rung is chosen once, when it leaves the hot tier, never by passing it
// through every rung on the way down. It is compressed into RAM while the
// compressed rung has room; after that it goes straight to the recompute
// rung, and the codec never sees it. Nothing is priced: placement depends
// only on frame and blob sizes, so identical runs place every step
// identically. Reverse-side, Fetch promotes steps back to hot frames and
// prefetches the next step in the background.
//
// The reverse sweep reads every step exactly once and a recomputation costs
// the same whichever step it is, so which steps hold the compressed rung
// does not change the sweep's cost — only how many. Keeping the first blobs
// that fit is therefore as good as any other choice, and it makes the rung a
// fill-once region: blobs are appended to an off-heap arena (arena.go) while
// arena bytes + hotReserveFrames frames <= budget, and never after
// EndForward. The arena can thus never hold more than the budget, and the
// compressed rung costs no heap objects and no GC headroom.
//
// Every rung is lossless, so the sensitivities a sweep reads through this
// store are bit-identical to the all-RAM run for any budget: hot frames are
// exact plaintext, blobs are lossless codec output, and a dropped step is
// recomputed bit-exactly from the in-memory trajectory. Placement moves cost
// between memory and time — never into the numbers.
//
// Unlike CompressedStore's reverse-sequential prediction chain, every blob
// here is self-contained (the codecs are restarted around each step), so
// the store is random-access: any fetch order works, and a step can leave
// the hot tier for whichever rung is cheapest without cutting a chain. The
// price is the temporal predictor: a self-contained blob is 2–3x the size of
// a chained one.
//
// Integrity mirrors the other stores: hot frames carry CRC32C sidecars
// (verified at fetch AND before a demotion re-encodes them, so in-RAM rot
// cannot be laundered into a validly-sealed blob), blobs carry the CRC32C of
// (tensor, step, payload) the chain's do. Any verification failure
// quarantines the step and surfaces as a degradable StepError for the adjoint
// recompute ladder.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"masc/internal/compress"
	"masc/internal/obs/span"
)

// Tier is one rung of the tiered store's ladder, ordered hot to cold.
type Tier uint8

const (
	// TierHot keeps the step as plaintext frames in RAM (CRC sidecars).
	TierHot Tier = iota
	// TierCompressed keeps the step as self-contained sealed blobs in RAM.
	TierCompressed
	// TierDropped keeps nothing: the step is recomputed from the trajectory
	// during the reverse sweep.
	TierDropped

	numTiers = 3
)

// String returns the metric-label spelling of the tier.
func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierCompressed:
		return "compressed"
	case TierDropped:
		return "dropped"
	}
	return "unknown"
}

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// BudgetBytes caps the modelled resident bytes (hot frames plus the
	// arena, which keeps every blob the compressed rung took until Close).
	// <= 0 means unlimited: every step stays hot and the store behaves like
	// MemStore with sidecars.
	// The cap is enforced up to one in-flight frame plus one blob of slack
	// (a demotion briefly holds both representations). hotReserveFrames
	// frames of it are kept for plaintext, whatever the compressed rung
	// could use.
	BudgetBytes int64
	// Deprecated: ignored; the tiered store has no spill rung.
	DiskDir string
	// Deprecated: ignored; the tiered store has no spill rung.
	DiskBytesPerSec float64
	// DisablePrefetch turns off the reverse-sweep background promotion of
	// step-1 while the sweep consumes step.
	DisablePrefetch bool
}

// RecomputeFunc re-derives one step's pair (first tensor, second tensor)
// from the forward trajectory. The returned slices may alias callee scratch;
// the store copies them. It must be bit-exact with what Put recorded for the
// step — adjoint.RecomputeSource's Pair is, for a store fed (G, C), and its
// Fetch for one fed (J, C).
type RecomputeFunc func(step int) (jVals, cVals []float64, err error)

// TieredStore is the ladder policy over core: it places steps across the
// hot/compressed/recompute rungs under TieredConfig.BudgetBytes. It
// implements Store and Repairer and is safe for concurrent use (the prefetch
// runs on a background goroutine, and the overlapped reverse sweep fetches
// from its own): every method, and with it every codec call and every arena
// access, runs under mu, so the arena needs no pins.
type TieredStore struct {
	mu sync.Mutex
	core
	cfg TieredConfig

	recompute RecomputeFunc
	closed    bool

	// blobSum/blobN is the running mean sealed blob size (J+C), the
	// estimate a hot step is placed on before it has been compressed.
	blobSum, blobN int64
	// evictable indexes the steps resting on the hot rung, lowest first; see
	// victim.
	evictable stepHeap
	probes    int64 // heap entries examined by victim, for the scale test

	prefetchBusy bool
	prefetchWG   sync.WaitGroup

	tob tierObs
}

// NewTieredStore builds a tiered store over the given first-tensor (G in the
// facade) and C codecs (masczip in production; any lossless Compressor works
// — codecs that keep cross-call prediction state should implement Restart()
// so per-step blobs stay self-contained).
func NewTieredStore(jc, cc compress.Compressor, cfg TieredConfig) *TieredStore {
	return &TieredStore{core: newCore(jc, cc), cfg: cfg}
}

// Attach wires telemetry (store=tiered series plus the masc_store_tier_*
// placement families) and fault injection — float rot on hot frames after
// their sidecars are recorded, blob corruption after sealing (which covers a
// demotion in flight). Call it before the first Put.
func (s *TieredStore) Attach(a Attachment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attach(a, "tiered")
	s.tob = newTierObs(a.Obs)
	s.cd.trace(s.ob.rec)
}

// SetRecompute installs the deliberate-drop recovery path: a dropped step's
// Fetch re-derives its tensors through fn instead of returning an error.
// Without it a dropped step surfaces as a degradable StepError, which the
// adjoint sweep's recompute ladder also handles — the hook just keeps
// planned drops out of the run's DegradedSteps accounting. Call any time
// before the first Fetch (the facade wires it after the forward pass, when
// the trajectory exists).
func (s *TieredStore) SetRecompute(fn RecomputeFunc) {
	s.mu.Lock()
	s.recompute = fn
	s.mu.Unlock()
}

// ObserveStepCost does nothing.
//
// Deprecated: ignored; the tiered store has no spill rung.
func (s *TieredStore) ObserveStepCost(time.Duration) {}

// Put implements Store: admit the step as a hot frame, then demote victims
// until the budget holds again.
func (s *TieredStore) Put(step int, jVals, cVals []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(step, jVals, cVals); err != nil {
		return err
	}
	st := &stepRec{}
	// Hot-tier rot window: after the sidecar, before any re-encode.
	s.admitFrame(step, st, s.copyFrame(pair{jVals, cVals}))
	s.steps = append(s.steps, st)
	s.bumpResident(s.frameBytes)
	s.enforceBudget()
	s.markEvictable(step)
	return nil
}

// enforceBudget demotes hot frames until resident <= budget. A blob of the
// compressed rung is never a victim: the fill-once arena keeps its bytes
// until Close, so dropping it would free nothing. A frame the caller is
// admitting or returning is exempt because callers mark it evictable only
// afterwards; whatever is left over budget then is in-use frames, which
// budget + slack covers.
func (s *TieredStore) enforceBudget() {
	if s.cfg.BudgetBytes <= 0 {
		return
	}
	for s.resident > s.cfg.BudgetBytes {
		v := s.victim()
		if v < 0 {
			return
		}
		s.demote(v)
	}
}

// markEvictable enters step, which rests on the hot rung, into the victim
// index.
func (s *TieredStore) markEvictable(step int) {
	if s.cfg.BudgetBytes <= 0 {
		return // nothing is ever evicted
	}
	s.evictable.push(uint32(step))
}

// victim takes the lowest evictable hot step off the index; -1 when none
// is left. Lowest first because the
// reverse sweep reads n→0, so the lowest live step is the one touched
// furthest in the future (the Belady choice for this access pattern).
//
// The index is a min-heap with lazy deletion: a step is pushed when it comes
// to rest on the hot rung, and an entry whose step has since moved, been
// fetched, released or quarantined is discarded when it surfaces. Every
// entry is examined at most once, so a run of n steps costs O(n log n)
// however long it is — no scan over the steps, no per-probe map lookup.
func (s *TieredStore) victim() int {
	h := &s.evictable
	for len(*h) > 0 {
		s.probes++
		i := int(h.pop())
		if st := s.steps[i]; st.tier == TierHot && !st.inUse && !st.released && !st.quarantined {
			return i
		}
	}
	return -1
}

// hotReserveFrames is the part of the budget the compressed rung may not
// fill, in frames: the reverse sweep's working set — the step being
// consumed, the one above it that is released only after the next fetch, and
// the background prefetch. Without the third, every promotion of a dropped
// step (a recomputation) would run in the foreground of its Fetch.
const hotReserveFrames = 3

// roomInRAM reports whether a blob of n bytes may join the compressed rung.
// The rung only ever fills (arena bytes are never handed back, and nothing
// joins after EndForward), so arena bytes <= budget holds by construction;
// and a blob no smaller than its frame is not worth keeping, so a demotion
// never raises the resident bytes it was called to lower.
func (s *TieredStore) roomInRAM(n int) bool {
	return !s.forwardDone && int64(n) < s.frameBytes &&
		s.arena.used+int64(n)+hotReserveFrames*s.frameBytes <= s.cfg.BudgetBytes
}

// blobEstimate is the expected sealed size (J+C) of a step that has not
// been compressed: the running mean of the blobs seen so far. Before the
// first it is a guess whose only job is to let that first blob be made.
func (s *TieredStore) blobEstimate() int {
	if s.blobN == 0 {
		return int(s.frameBytes / 2)
	}
	return int(s.blobSum / s.blobN)
}

// demote moves hot victim i off its rung, to the rung it will stay on: it
// is compressed into RAM if its blob fits — judged on the estimate before the
// codec runs and on the real size after — and otherwise dropped. The
// sidecars are verified first: plaintext that rotted in RAM must quarantine,
// not be laundered into a freshly sealed blob the fetch path would trust.
func (s *TieredStore) demote(i int) {
	st := s.steps[i]
	if _, err := st.rotted(); err != nil {
		s.quarantine(i, st)
		s.freeHot(st)
		return
	}
	dsp := s.ob.rec.Start(s.ob.spanParent(), span.Demote, i)
	s.cd.setParent(dsp.ID())
	kept := false
	if est := s.blobEstimate(); s.roomInRAM(est) {
		s.noteDecision(dsp.ID(), i, est, TierCompressed)
		s.encode(i)
		// The real size decides; an estimate that was short drops the blob,
		// already made.
		kept = s.roomInRAM(st.jbN+st.cbN) && s.keepBlobs(st)
	}
	if kept {
		s.noteDemote(TierCompressed)
	} else {
		s.drop(dsp.ID(), i)
	}
	dsp.Attr("tier", int64(st.tier))
	dsp.Attr("bytes", int64(st.jbN+st.cbN))
	dsp.End()
}

// encode seals hot step i as self-contained blobs and frees its plaintext.
// The step's blobs alias the scratch frames until the caller keeps them in
// the arena or drops them.
func (s *TieredStore) encode(i int) {
	st := s.steps[i]
	t0 := time.Now()
	s.cd.restart()
	// Corruption during the demotion itself: the sealed blob is the target.
	st.jBlob, st.cBlob = s.seal(i, st.pair, history{})
	d := time.Since(t0)
	s.stats.CompressTime += d
	s.ob.compressSec.AddDuration(d)
	st.jbN, st.cbN = len(st.jBlob), len(st.cBlob)
	st.tier = TierCompressed
	n := int64(st.jbN + st.cbN)
	s.bumpResident(n)
	s.freeHot(st)
	s.blobSum += n
	s.blobN++
	s.ob.blobBytes.Observe(float64(n))
}

// keepBlobs moves a just-encoded step's blobs from the scratch frames into
// the arena. It reports false — leaving the blobs where they are — when the
// arena cannot take them (no memory to map), which the caller treats like a
// blob that does not fit.
func (s *TieredStore) keepBlobs(st *stepRec) bool {
	_, err := s.keep(st, st.jBlob, st.cBlob)
	return err == nil
}

// drop moves step i onto the recompute rung: a hot frame is freed without
// meeting the codec, a step whose blobs did not fit the arena gives up the
// scratch frames they lie in.
func (s *TieredStore) drop(parent span.ID, i int) {
	st := s.steps[i]
	if st.tier == TierHot {
		s.noteDecision(parent, i, s.blobEstimate(), TierDropped)
		s.freeHot(st)
		s.stats.TierDirectDrops++
		s.tob.directDrops.Inc()
	} else {
		s.noteDecision(parent, i, st.jbN+st.cbN, TierDropped)
		s.bumpResident(-int64(st.jbN + st.cbN))
		st.jBlob, st.cBlob = nil, nil
	}
	st.jbN, st.cbN = 0, 0
	st.tier = TierDropped
	s.noteDemote(TierDropped)
}

// noteDecision records one placement with the sizes behind it, so every
// demotion is auditable from the span stream after the fact. blobBytes is
// the estimate for a step leaving the hot tier, the real size for one that
// has its blobs.
func (s *TieredStore) noteDecision(parent span.ID, step, blobBytes int, to Tier) {
	tsp := s.ob.rec.Start(parent, span.TierDecision, step)
	tsp.Attr("tier", int64(to))
	tsp.Attr("est_blob_bytes", int64(blobBytes))
	tsp.Attr("raw_bytes", s.frameBytes)
	tsp.End()
}

// freeHot drops a step's plaintext frame from the resident model and parks
// it for reuse.
func (s *TieredStore) freeHot(st *stepRec) {
	if st.j != nil {
		s.bumpResident(-s.frameBytes)
		s.parkFrame(st.pair)
		st.frame = frame{}
	}
}

func (s *TieredStore) noteDemote(to Tier) {
	s.stats.TierDemotions++
	s.tob.demote(to)
}

func (s *TieredStore) notePromote(from Tier) {
	s.stats.TierPromotions++
	s.tob.promote(from)
}

// EndForward implements Store: close the compressed rung to new blobs, one
// final budget pass, then record the placement Stats reports.
func (s *TieredStore) EndForward() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forwardDone = true
	s.enforceBudget()
	steps, bytes := s.placement()
	s.tob.observe(steps, bytes)
	s.stats.TierHotSteps = steps[TierHot]
	s.stats.TierCompressedSteps = steps[TierCompressed]
	s.stats.TierDroppedSteps = steps[TierDropped]
	s.stats.TierHotBytes = bytes[TierHot]
	s.stats.TierCompressedBytes = bytes[TierCompressed]
	s.stats.StoredBytes = bytes[TierHot] + bytes[TierCompressed]
	s.ob.storedBytes.Add(float64(s.stats.StoredBytes))
	return nil
}

// placement counts the live steps on each rung and the bytes they hold
// there.
func (s *TieredStore) placement() (steps [numTiers]int, bytes [numTiers]int64) {
	for _, st := range s.steps {
		if st.released {
			continue
		}
		steps[st.tier]++
		switch st.tier {
		case TierHot:
			bytes[TierHot] += s.frameBytes
		case TierCompressed:
			bytes[TierCompressed] += int64(st.jbN + st.cbN)
		}
	}
	return steps, bytes
}

// Fetch implements Store. Random access: every step is self-contained, so
// any order works (the reverse sweep reads n→0).
func (s *TieredStore) Fetch(step int) ([]float64, []float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.forwardDone {
		return nil, nil, &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	}
	if step < 0 || step >= len(s.steps) {
		return nil, nil, fmt.Errorf("jactensor: fetch step %d of %d", step, len(s.steps))
	}
	st := s.steps[step]
	if st.released {
		return nil, nil, fmt.Errorf("jactensor: step %d already released", step)
	}
	hit := st.tier == TierHot
	if err := s.materialize(step); err != nil {
		return nil, nil, err
	}
	if st.prefetched {
		st.prefetched = false
		s.ob.prefetchHits.Inc()
	} else if !hit && !s.cfg.DisablePrefetch {
		s.ob.prefetchMiss.Inc()
	}
	st.inUse = true
	s.ob.fetches.Inc()
	s.maybePrefetch(step - 1)
	return st.j, st.c, nil
}

// materialize promotes step to a verified hot frame, whatever rung it sits
// on. The frame is not evictable until the caller says so (markEvictable).
// Caller holds s.mu.
func (s *TieredStore) materialize(step int) error {
	st := s.steps[step]
	if st.quarantined {
		return corruptErr(step, "fetch", "", errQuarantined)
	}
	if st.tier == TierHot {
		// Verify the sidecars on every fetch, like MemStore: rot between
		// Put/promote and now must degrade, not propagate.
		if tensor, err := st.rotted(); err != nil {
			s.quarantine(step, st)
			return corruptErr(step, "fetch", tensor, err)
		}
		return nil
	}
	from := st.tier
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Promote, step)
	s.cd.setParent(psp.ID())
	err := s.promoteCold(step, st, psp.ID())
	psp.Attr("from", int64(from))
	psp.Attr("ok", boolAttr(err == nil))
	psp.End()
	if err != nil {
		return err
	}
	st.tier = TierHot
	s.notePromote(from)
	s.enforceBudget()
	return nil
}

// promoteCold re-derives a non-hot step's plaintext frame from whatever
// rung holds it. parent is the enclosing promote span. Caller holds s.mu.
func (s *TieredStore) promoteCold(step int, st *stepRec, parent span.ID) error {
	switch st.tier {
	case TierCompressed:
		if err := s.decodeBlobs(step, st.jBlob, st.cBlob); err != nil {
			return err
		}
		// The blobs' bytes stay in the arena, and counted, until Close.
		st.jBlob, st.cBlob = nil, nil
	case TierDropped:
		if s.recompute == nil {
			return &StepError{Step: step, Op: "fetch", Degradable: true,
				Err: errors.New("step deliberately dropped under the memory budget (no recompute hook)")}
		}
		rsp := s.ob.rec.Start(parent, span.Recompute, step)
		jv, cv, err := s.recompute(step)
		if err != nil {
			rsp.Attr("ok", 0)
			rsp.End()
			return &StepError{Step: step, Op: "fetch", Degradable: true,
				Err: fmt.Errorf("recompute dropped step: %w", err)}
		}
		s.stats.TierRecomputes++
		s.adoptHot(step, s.copyFrame(pair{jv, cv}))
		rsp.Attr("ok", 1)
		rsp.End()
	}
	return nil
}

// decodeBlobs opens and decompresses a step's sealed blobs into a recycled
// hot frame; failures quarantine the step.
func (s *TieredStore) decodeBlobs(step int, jb, cb []byte) error {
	jp, cp, tensor, err := openPair(step, jb, cb)
	if err == nil {
		p := s.takeFrame()
		t0 := time.Now()
		s.cd.restart()
		if tensor, err = s.cd.decode(p, jp, cp, history{}); err == nil {
			d := time.Since(t0)
			s.stats.DecompressTime += d
			s.ob.decompressSec.AddDuration(d)
			s.adoptHot(step, p)
			return nil
		}
		s.parkFrame(p)
	}
	s.quarantine(step, s.steps[step])
	return corruptErr(step, "fetch", tensor, err)
}

// adoptHot makes p (owned by the store from here on) step's hot frame,
// records the sidecars and counts the frame resident.
func (s *TieredStore) adoptHot(step int, p pair) {
	s.steps[step].rest(p)
	s.bumpResident(s.frameBytes)
}

// maybePrefetch promotes the given step on a background goroutine when the
// budget has a frame of slack — the reverse sweep's next fetch then finds a
// hot frame. At most one prefetch is in flight; errors are left for the
// foreground fetch to re-derive deterministically (a quarantined step stays
// quarantined). Caller holds s.mu.
func (s *TieredStore) maybePrefetch(step int) {
	if s.cfg.DisablePrefetch || s.prefetchBusy || s.closed || step < 0 || step >= len(s.steps) {
		return
	}
	st := s.steps[step]
	if st.released || st.tier == TierHot {
		return
	}
	if s.cfg.BudgetBytes > 0 && s.resident+s.frameBytes > s.cfg.BudgetBytes {
		return
	}
	s.prefetchBusy = true
	s.prefetchWG.Add(1)
	go func() {
		defer s.prefetchWG.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.prefetchBusy = false
		if s.closed || st.released || st.inUse || st.tier == TierHot {
			return
		}
		if s.materialize(step) == nil {
			st.prefetched = true
			s.markEvictable(step)
		}
	}()
}

// Repair implements Repairer: install recomputed plaintext as the step's
// hot frame and lift the quarantine.
func (s *TieredStore) Repair(step int, jVals, cVals []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < 0 || step >= len(s.steps) {
		return
	}
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	st := s.steps[step]
	from := st.tier
	// A blob's bytes stay in the arena, and counted, until Close.
	st.jBlob, st.cBlob = nil, nil
	s.freeHot(st)
	st.tier = TierHot
	s.adoptHot(step, s.copyFrame(pair{jVals, cVals}))
	// Repairing a released step revives it, so the frame installed here is
	// freed by the next Release rather than leaked.
	st.released = false
	s.heal(st)
	if from != TierHot {
		s.notePromote(from)
	}
	s.enforceBudget()
	s.markEvictable(step)
}

// Release implements Store: the step is dead — free every representation.
func (s *TieredStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < 0 || step >= len(s.steps) {
		return
	}
	st := s.steps[step]
	if st.released {
		return
	}
	// A blob's bytes stay in the arena, and counted, until Close.
	s.freeHot(st)
	st.jBlob, st.cBlob = nil, nil
	st.released = true
	st.inUse = false
}

// Stats implements Store. The per-tier step and byte counts are the
// placement EndForward recorded; the per-tier gauges follow the live one.
func (s *TieredStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tob.observe(s.placement())
	st := s.stats
	st.BudgetBytes = s.cfg.BudgetBytes
	return st
}

// Close implements Store: drain the prefetch, then drop everything and
// return the arena's memory. Idempotent.
func (s *TieredStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.prefetchWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeCore()
	s.evictable = nil
	return nil
}

// stepHeap is a binary min-heap of step numbers.
type stepHeap []uint32

func (h *stepHeap) push(k uint32) {
	a := append(*h, k)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= k {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
	*h = a
}

func (h *stepHeap) pop() uint32 {
	a := *h
	top, k := a[0], a[len(a)-1]
	a = a[:len(a)-1]
	*h = a
	i := 0
	for {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1] < a[c] {
			c++
		}
		if k <= a[c] {
			break
		}
		a[i] = a[c]
		i = c
	}
	if len(a) > 0 {
		a[i] = k
	}
	return top
}
