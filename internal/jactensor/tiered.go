package jactensor

// The tiered Jacobian store: per-step placement across the four-rung ladder
//
//	hot RAM → compressed RAM → disk spill → deliberate drop-and-recompute
//
// under a hard resident-byte budget. Capture-side, every Put admits the new
// step as a hot frame and then demotes the cheapest victims down the ladder
// until the modelled resident bytes fit the budget again; reverse-side,
// Fetch promotes steps back to hot frames (and prefetches the next step in
// the background when the budget has slack). The tiersched cost model —
// fed with measured compress/decompress/spill/recompute timings through an
// injectable clock — decides whether an evicted blob is worth spilling or
// cheaper to recompute.
//
// Every rung is lossless, so the sensitivities a sweep reads through this
// store are bit-identical to the all-RAM run for any budget: hot frames are
// exact plaintext, blobs are lossless codec output, the spill file holds
// those same sealed blobs, and a dropped step is recomputed bit-exactly
// from the in-memory trajectory. Placement moves cost between memory and
// time — never into the numbers.
//
// Unlike CompressedStore's reverse-sequential prediction chain, every blob
// here is self-contained (the codecs are restarted around each step), so
// the store is random-access: any fetch order works, which is what lets
// windowed reverse sweeps share it through the adjoint engine's
// copy-on-fetch sharedSource wrapper. SetAnchorEvery pins the window-anchor
// steps against dropping (and demotes them last), so a window's first fetch
// never lands on the recompute rung.
//
// Integrity mirrors the other stores: hot frames carry CRC32C sidecars
// (verified at fetch AND before a demotion re-encodes them, so in-RAM rot
// cannot be laundered into a validly-sealed blob), blobs are blobframe
// sealed, and the spill device sits behind the diskio retry policy. Any
// verification failure quarantines the step and surfaces as a degradable
// StepError for the adjoint recompute ladder. A spill write that still
// fails after retries degrades the demotion to a drop instead of aborting
// the forward pass.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/diskio"
	"masc/internal/faultinject"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/tiersched"
)

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// BudgetBytes caps the modelled resident bytes (hot frames plus
	// compressed-RAM blobs plus I/O scratch). <= 0 means unlimited: every
	// step stays hot and the store behaves like MemStore with sidecars.
	// The cap is enforced up to one in-flight frame plus one blob of slack
	// (a demotion briefly holds both representations).
	BudgetBytes int64
	// Model prices the ladder; nil builds a wall-clock model.
	Model *tiersched.Model
	// DiskDir and DiskBytesPerSec configure the spill tier (empty dir =
	// system temp, 0 bps = unthrottled), like DiskStore.
	DiskDir         string
	DiskBytesPerSec float64
	// DisableDisk removes the spill rung: evicted blobs are dropped and
	// recomputed. (Also the degraded mode after a spill-device failure.)
	DisableDisk bool
	// DisablePrefetch turns off the reverse-sweep background promotion of
	// step-1 while the sweep consumes step.
	DisablePrefetch bool
}

// tierStep is the per-step placement state.
type tierStep struct {
	tier       tiersched.Tier
	j, c       []float64 // hot plaintext (tier == Hot)
	jSum, cSum uint32    // CRC32C sidecars of the hot plaintext
	jBlob      []byte    // sealed self-contained blob (tier == Compressed)
	cBlob      []byte
	jOff, cOff int64 // spill offsets (tier == Disk)
	jbN, cbN   int   // sealed blob lengths, kept for spill reads
	pinned     bool  // window anchor: demoted last, never dropped to recompute
	inUse      bool  // fetched and not yet released: not evictable
	prefetched bool  // materialized by the background prefetch
	released   bool
}

// RecomputeFunc re-derives one step's (J values, C values) from the forward
// trajectory. The returned slices may alias callee scratch; the store
// copies them. It must be bit-exact with what Put recorded for the step —
// adjoint.NewRecomputeSource satisfies this.
type RecomputeFunc func(step int) (jVals, cVals []float64, err error)

// TieredStore places steps across the hot/compressed/disk/recompute ladder
// under TieredConfig.BudgetBytes. It implements Store and Repairer and is
// safe for concurrent use (windowed sweeps fetch through the adjoint
// engine's sharedSource, the prefetch runs on a background goroutine).
type TieredStore struct {
	mu     sync.Mutex
	jc, cc compress.Compressor
	cfg    TieredConfig
	model  *tiersched.Model

	steps      []*tierStep
	jLen, cLen int
	frameBytes int64 // 8*(jLen+cLen), known after the first Put

	spill     *diskio.Store   // lazily created on the first disk demotion
	spillDead bool            // creation failed or disabled: drop instead
	ctx       context.Context // forwarded to the spill device's retry loop

	anchorEvery int
	recompute   RecomputeFunc
	forwardDone bool
	closed      bool

	// Recycling, so a Put/demote/promote cycle allocates nothing but the
	// exact-size blob it keeps: hot frames freed by a demotion or a Release
	// wait in freeJ/freeC for the next admission or promotion, and demotions
	// compress into the frameJ/frameC scratch frames and copy the sealed
	// result out at its exact length.
	freeJ, freeC   [][]float64
	frameJ, frameC []byte

	quarantined map[int]bool
	resident    int64
	scratch     []byte // spill read staging

	prefetchBusy bool
	prefetchWG   sync.WaitGroup

	stats Stats
	fault *faultinject.Injector
	ob    storeObs
	tob   tierObs

	// Codec-level span hooks (masczip), cached in SetSpanScope; nil when
	// the codecs don't trace or spans are off. All codec calls run under
	// s.mu, so re-pointing the parent between calls is race-free.
	spanJC, spanCC spanCodec
}

// setCodecParent points the codecs' next encode/decode span at id.
func (s *TieredStore) setCodecParent(id span.ID) {
	if s.spanJC != nil {
		s.spanJC.SetSpanParent(id)
	}
	if s.spanCC != nil {
		s.spanCC.SetSpanParent(id)
	}
}

// NewTieredStore builds a tiered store over the given J and C codecs
// (masczip in production; any lossless Compressor works — codecs that keep
// cross-call prediction state should implement Restart() so per-step blobs
// stay self-contained).
func NewTieredStore(jc, cc compress.Compressor, cfg TieredConfig) *TieredStore {
	m := cfg.Model
	if m == nil {
		m = tiersched.NewModel(nil)
	}
	return &TieredStore{
		jc:          jc,
		cc:          cc,
		cfg:         cfg,
		model:       m,
		spillDead:   cfg.DisableDisk,
		quarantined: map[int]bool{},
		frameJ:      make([]byte, blobframe.HeaderSize),
		frameC:      make([]byte, blobframe.HeaderSize),
	}
}

// SetFault installs a fault injector: float rot on hot frames after their
// sidecars are recorded, blob corruption after sealing (which covers a
// demotion in flight), op failures on the spill device. nil injects
// nothing.
func (s *TieredStore) SetFault(in *faultinject.Injector) {
	s.fault = in
	if s.spill != nil {
		s.spill.SetFault(in)
	}
}

// SetContext attaches a cancellation context forwarded to the spill
// device's retry loop (including one created by a later lazy demotion).
func (s *TieredStore) SetContext(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = ctx
	if s.spill != nil {
		s.spill.SetContext(ctx)
	}
}

// SyncSpill fsyncs the spill file, if one exists, so every demoted blob a
// journal checkpoint references is durable before the checkpoint record is.
// A store that never demoted to disk (or runs diskless) syncs nothing.
func (s *TieredStore) SyncSpill() error {
	s.mu.Lock()
	sp := s.spill
	s.mu.Unlock()
	if sp == nil {
		return nil
	}
	return sp.Sync()
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

// SetAnchorEvery pins every k-th step (k > 0; step 0 excluded) as a window
// anchor: anchors are demoted after every non-anchor and never dropped to
// the recompute rung while the spill device lives, so window-boundary
// fetches stay cheap. Mirrors CompressedStore.SetAnchorEvery's spacing
// contract. Call before the first Put.
func (s *TieredStore) SetAnchorEvery(k int) {
	s.mu.Lock()
	s.anchorEvery = k
	s.mu.Unlock()
}

// AnchorSteps returns the ascending pinned anchor steps plus the head step,
// or nil when no anchors were requested or the forward pass is still
// running. The adjoint engine uses this menu to align window boundaries
// with tier anchors.
func (s *TieredStore) AnchorSteps() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.forwardDone || s.anchorEvery <= 0 || len(s.steps) == 0 {
		return nil
	}
	var out []int
	head := len(s.steps) - 1
	for i, st := range s.steps {
		// The head is appended below; skip it here so a trajectory whose
		// length is an exact multiple of anchorEvery doesn't list it twice
		// (duplicate tops would degenerate the window split).
		if st.pinned && i != head {
			out = append(out, i)
		}
	}
	return append(out, head)
}

// Model exposes the cost model (tests feed it deterministic samples;
// the facade feeds forward-step timings as the recompute cost proxy).
func (s *TieredStore) Model() *tiersched.Model { return s.model }

// ObserveStepCost feeds one forward integration step's wall time into the
// cost model as the recompute-cost proxy — the capture-side sampling hook
// the transient loop drives.
func (s *TieredStore) ObserveStepCost(d time.Duration) {
	s.model.ObserveRecompute(d)
}

// bumpResident adjusts the resident model and peak, shared accounting with
// the other stores.
func (s *TieredStore) bumpResident(delta int64) {
	s.resident += delta
	if s.resident > s.stats.PeakResident {
		s.stats.PeakResident = s.resident
	}
	s.ob.observeResident(s.resident)
}

// Put implements Store: admit the step as a hot frame, then demote victims
// until the budget holds again.
func (s *TieredStore) Put(step int, jVals, cVals []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forwardDone {
		return &StepError{Step: step, Op: "put", Err: errors.New("Put after EndForward")}
	}
	if step != len(s.steps) {
		return fmt.Errorf("jactensor: put step %d out of order (have %d)", step, len(s.steps))
	}
	if step == 0 {
		s.jLen, s.cLen = len(jVals), len(cVals)
		s.frameBytes = int64(8 * (s.jLen + s.cLen))
	}
	st := &tierStep{
		tier:   tiersched.Hot,
		j:      copyBuf(&s.freeJ, jVals),
		c:      copyBuf(&s.freeC, cVals),
		pinned: s.anchorEvery > 0 && step > 0 && step%s.anchorEvery == 0,
	}
	st.jSum = blobframe.ChecksumFloat64(st.j)
	st.cSum = blobframe.ChecksumFloat64(st.c)
	// Hot-tier rot window: after the sidecar, before any re-encode.
	s.fault.MutateFloats(step, st.j)
	s.fault.MutateFloats(step, st.c)
	s.steps = append(s.steps, st)
	s.stats.Steps++
	s.stats.RawBytes += s.frameBytes
	s.bumpResident(s.frameBytes)
	s.ob.puts.Inc()
	s.ob.rawBytes.Add(float64(s.frameBytes))
	s.enforceBudget(step)
	return nil
}

// enforceBudget demotes steps down the ladder until resident <= budget.
// protect (>= 0) exempts one step — the frame the caller is admitting or
// returning. Victims are taken lowest-step-first: the reverse sweep reads
// n→0, so the lowest live step is the one touched furthest in the future
// (the Belady choice for this access pattern). Non-pinned steps go before
// anchors.
func (s *TieredStore) enforceBudget(protect int) {
	if s.cfg.BudgetBytes <= 0 {
		return
	}
	for s.resident > s.cfg.BudgetBytes {
		if v := s.victim(tiersched.Hot, protect); v >= 0 {
			s.demoteHot(v)
			continue
		}
		if v := s.victim(tiersched.Compressed, protect); v >= 0 {
			s.demoteCompressed(v)
			continue
		}
		return // only protected/in-use frames remain: budget + slack covers them
	}
}

// victim picks the lowest evictable step currently on the given tier,
// preferring non-pinned steps; -1 when none qualifies.
func (s *TieredStore) victim(tier tiersched.Tier, protect int) int {
	pinned := -1
	for i, st := range s.steps {
		if st.tier != tier || st.inUse || st.released || i == protect || s.quarantined[i] {
			continue
		}
		if !st.pinned {
			return i
		}
		if pinned < 0 {
			pinned = i
		}
	}
	return pinned
}

// restart cuts any cross-call codec prediction state so the next
// Compress/Decompress round-trips as a self-contained blob.
func (s *TieredStore) restart() {
	type restarter interface{ Restart() }
	if r, ok := s.jc.(restarter); ok {
		r.Restart()
	}
	if r, ok := s.cc.(restarter); ok {
		r.Restart()
	}
}

// demoteHot re-encodes step i's hot frame as sealed self-contained blobs
// (hot → compressed RAM). The sidecars are verified first: plaintext that
// rotted in RAM must quarantine, not be laundered into a freshly sealed
// blob the fetch path would trust.
func (s *TieredStore) demoteHot(i int) {
	st := s.steps[i]
	if blobframe.ChecksumFloat64(st.j) != st.jSum || blobframe.ChecksumFloat64(st.c) != st.cSum {
		s.quarantineLocked(i)
		s.freeHot(st)
		return
	}
	dsp := s.ob.rec.Start(s.ob.spanParent(), span.Demote, i)
	s.setCodecParent(dsp.ID())
	t0 := s.model.Now()
	s.restart()
	s.frameJ = s.jc.Compress(s.frameJ[:blobframe.HeaderSize], st.j, nil)
	s.frameC = s.cc.Compress(s.frameC[:blobframe.HeaderSize], st.c, nil)
	d := s.model.Now().Sub(t0)
	s.model.ObserveCompress(int(s.frameBytes), d)
	s.stats.CompressTime += d
	s.ob.compressSec.AddDuration(d)
	blobframe.Seal(s.frameJ, 'J', i)
	blobframe.Seal(s.frameC, 'C', i)
	// Corruption during the demotion itself: the sealed blob is the target.
	jb, _ := s.fault.MutateBlob(i, s.frameJ)
	cb, _ := s.fault.MutateBlob(i, s.frameC)
	st.jBlob = append([]byte(nil), jb...)
	st.cBlob = append([]byte(nil), cb...)
	st.jbN, st.cbN = len(jb), len(cb)
	st.tier = tiersched.Compressed
	s.bumpResident(int64(len(jb) + len(cb)))
	s.freeHot(st)
	s.noteDemote(i, tiersched.Compressed, int64(st.jbN+st.cbN))
	s.ob.blobBytes.Observe(float64(st.jbN + st.cbN))
	dsp.Attr("tier", int64(tiersched.Compressed))
	dsp.Attr("bytes", int64(st.jbN+st.cbN))
	dsp.End()
}

// demoteCompressed pushes step i's blobs off-RAM: to the spill device when
// the cost model prefers it (and it works), otherwise dropping the step for
// deliberate recomputation. Spill failures after retries degrade to a drop
// rather than aborting the forward pass.
func (s *TieredStore) demoteCompressed(i int) {
	st := s.steps[i]
	diskOK := !s.spillDead
	dec := s.model.ExplainSpill(st.jbN+st.cbN, int(s.frameBytes), diskOK)
	target := dec.Target
	if st.pinned && diskOK {
		target = tiersched.Disk // anchors never drop while the spill lives
	}
	// Record the cost-model inputs behind the placement, so every demotion
	// is auditable from the span stream after the fact.
	tsp := s.ob.rec.Start(s.ob.spanParent(), span.TierDecision, i)
	tsp.Attr("tier", int64(target))
	tsp.Attr("blob_bytes", int64(st.jbN+st.cbN))
	tsp.Attr("raw_bytes", s.frameBytes)
	tsp.Attr("recompute_ns", dec.RecomputeNS)
	tsp.Attr("disk_ns", dec.DiskNS)
	tsp.Attr("measured", boolAttr(dec.Measured))
	tsp.End()
	if target == tiersched.Disk {
		if err := s.spillStep(i); err == nil {
			return
		}
		// Spill device gone: degrade this and future demotions to drops.
		s.spillDead = true
	}
	dsp := s.ob.rec.Start(s.ob.spanParent(), span.Demote, i)
	s.bumpResident(-int64(st.jbN + st.cbN))
	st.jBlob, st.cBlob = nil, nil
	st.tier = tiersched.Dropped
	s.noteDemote(i, tiersched.Dropped, 0)
	dsp.Attr("tier", int64(tiersched.Dropped))
	dsp.End()
}

// spillStep appends step i's sealed blobs to the spill file.
func (s *TieredStore) spillStep(i int) error {
	st := s.steps[i]
	if s.spill == nil {
		sp, err := diskio.Create(s.cfg.DiskDir, s.cfg.DiskBytesPerSec)
		if err != nil {
			return err
		}
		sp.SetFault(s.fault)
		sp.SetSpans(s.ob.rec, s.ob.scope)
		if s.ctx != nil {
			sp.SetContext(s.ctx)
		}
		s.spill = sp
	}
	ssp := s.ob.rec.Start(s.ob.spanParent(), span.Spill, i)
	t0 := s.model.Now()
	jOff, err := s.spill.Append(st.jBlob)
	if err != nil {
		ssp.Attr("ok", 0)
		ssp.End()
		return err
	}
	cOff, err := s.spill.Append(st.cBlob)
	if err != nil {
		ssp.Attr("ok", 0)
		ssp.End()
		return err
	}
	d := s.model.Now().Sub(t0)
	s.model.ObserveDiskWrite(st.jbN+st.cbN, d)
	s.ob.ioSec.AddDuration(d)
	st.jOff, st.cOff = jOff, cOff
	s.bumpResident(-int64(st.jbN + st.cbN))
	st.jBlob, st.cBlob = nil, nil
	st.tier = tiersched.Disk
	s.noteDemote(i, tiersched.Disk, int64(st.jbN+st.cbN))
	ssp.Attr("bytes", int64(st.jbN+st.cbN))
	ssp.Attr("off", jOff)
	ssp.Attr("ok", 1)
	ssp.End()
	return nil
}

// tierFreeFrames caps the free lists. A Put/demote or promote/Release cycle
// keeps at most a frame or two waiting (plus the prefetch's); without a cap
// an unlimited-budget store would park its whole tensor there as the sweep
// releases it.
const tierFreeFrames = 4

// freeHot drops a step's plaintext frame from the resident model and parks
// it for reuse.
func (s *TieredStore) freeHot(st *tierStep) {
	if st.j != nil {
		s.bumpResident(-s.frameBytes)
		s.parkFrame(st.j, st.c)
		st.j, st.c = nil, nil
	}
}

// parkFrame puts an idle frame on the free lists, or lets it go when they
// are full.
func (s *TieredStore) parkFrame(j, c []float64) {
	if len(s.freeJ) < tierFreeFrames {
		s.freeJ = append(s.freeJ, j)
		s.freeC = append(s.freeC, c)
	}
}

func (s *TieredStore) noteDemote(step int, to tiersched.Tier, bytes int64) {
	s.stats.TierDemotions++
	s.tob.demote(to)
	if s.ob.tr != nil {
		s.ob.tr.Emit(obs.Event{Step: step, Phase: "demote", Key: to.String(), N: bytes})
	}
}

func (s *TieredStore) notePromote(step int, from tiersched.Tier) {
	s.stats.TierPromotions++
	s.tob.promote(from)
	if s.ob.tr != nil {
		s.ob.tr.Emit(obs.Event{Step: step, Phase: "promote", Key: from.String(), N: s.frameBytes})
	}
}

func (s *TieredStore) quarantineLocked(i int) {
	qsp := s.ob.rec.Start(s.ob.spanParent(), span.Quarantine, i)
	qsp.End()
	s.quarantined[i] = true
	s.stats.CorruptBlobs++
	s.ob.corrupt.Inc()
}

// EndForward implements Store: one final budget pass, then the per-tier
// placement snapshot.
func (s *TieredStore) EndForward() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forwardDone = true
	s.enforceBudget(-1)
	s.snapshotTiersLocked()
	s.stats.StoredBytes = s.stats.TierHotBytes + s.stats.TierCompressedBytes + s.stats.TierDiskBytes
	s.ob.storedBytes.Add(float64(s.stats.StoredBytes))
	return nil
}

// snapshotTiersLocked refreshes the per-tier step/byte accounting in stats
// and mirrors it to the tier gauges.
func (s *TieredStore) snapshotTiersLocked() {
	var steps [tiersched.NumTiers]int
	var bytes [tiersched.NumTiers]int64
	for _, st := range s.steps {
		if st.released {
			continue
		}
		steps[st.tier]++
		switch st.tier {
		case tiersched.Hot:
			bytes[tiersched.Hot] += s.frameBytes
		case tiersched.Compressed:
			bytes[tiersched.Compressed] += int64(st.jbN + st.cbN)
		case tiersched.Disk:
			bytes[tiersched.Disk] += int64(st.jbN + st.cbN)
		}
	}
	s.stats.TierHotSteps = steps[tiersched.Hot]
	s.stats.TierCompressedSteps = steps[tiersched.Compressed]
	s.stats.TierDiskSteps = steps[tiersched.Disk]
	s.stats.TierDroppedSteps = steps[tiersched.Dropped]
	s.stats.TierHotBytes = bytes[tiersched.Hot]
	s.stats.TierCompressedBytes = bytes[tiersched.Compressed]
	s.stats.TierDiskBytes = bytes[tiersched.Disk]
	s.tob.observe(steps, bytes)
}

// Fetch implements Store. Random access: every step is self-contained, so
// any order works (the serial sweep reads n→0, windowed sweeps interleave).
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
	hit := st.tier == tiersched.Hot
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
// on. Caller holds s.mu.
func (s *TieredStore) materialize(step int) error {
	if s.quarantined[step] {
		return corruptErr(step, "fetch", "", errors.New("step is quarantined"))
	}
	st := s.steps[step]
	if st.tier == tiersched.Hot {
		// Verify the sidecars on every fetch, like MemStore: rot between
		// Put/promote and now must degrade, not propagate.
		if got := blobframe.ChecksumFloat64(st.j); got != st.jSum {
			s.quarantineLocked(step)
			return corruptErr(step, "fetch", "J", fmt.Errorf("checksum %#08x, want %#08x", got, st.jSum))
		}
		if got := blobframe.ChecksumFloat64(st.c); got != st.cSum {
			s.quarantineLocked(step)
			return corruptErr(step, "fetch", "C", fmt.Errorf("checksum %#08x, want %#08x", got, st.cSum))
		}
		return nil
	}
	from := st.tier
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Promote, step)
	s.setCodecParent(psp.ID())
	err := s.promoteCold(step, st, psp.ID())
	psp.Attr("from", int64(from))
	psp.Attr("ok", boolAttr(err == nil))
	psp.End()
	if err != nil {
		return err
	}
	st.tier = tiersched.Hot
	s.notePromote(step, from)
	s.enforceBudget(step)
	return nil
}

// promoteCold re-derives a non-hot step's plaintext frame from whatever
// rung holds it. parent is the enclosing promote span. Caller holds s.mu.
func (s *TieredStore) promoteCold(step int, st *tierStep, parent span.ID) error {
	switch st.tier {
	case tiersched.Compressed:
		if err := s.decodeBlobs(step, st.jBlob, st.cBlob); err != nil {
			return err
		}
		s.bumpResident(-int64(st.jbN + st.cbN))
		st.jBlob, st.cBlob = nil, nil
	case tiersched.Disk:
		jb, cb, err := s.readSpill(step)
		if err != nil {
			return err
		}
		if err := s.decodeBlobs(step, jb, cb); err != nil {
			return err
		}
	case tiersched.Dropped:
		if s.recompute == nil {
			return &StepError{Step: step, Op: "fetch", Degradable: true,
				Err: errors.New("step deliberately dropped under the memory budget (no recompute hook)")}
		}
		rsp := s.ob.rec.Start(parent, span.Recompute, step)
		t0 := s.model.Now()
		jv, cv, err := s.recompute(step)
		if err != nil {
			rsp.Attr("ok", 0)
			rsp.End()
			return &StepError{Step: step, Op: "fetch", Degradable: true,
				Err: fmt.Errorf("recompute dropped step: %w", err)}
		}
		d := s.model.Now().Sub(t0)
		s.model.ObserveRecompute(d)
		s.stats.TierRecomputes++
		s.installHot(step, jv, cv)
		rsp.Attr("ok", 1)
		rsp.End()
	}
	return nil
}

// decodeBlobs opens and decompresses a step's sealed blobs into a recycled
// hot frame; failures quarantine the step.
func (s *TieredStore) decodeBlobs(step int, jb, cb []byte) error {
	open := func(frame []byte, kind byte, tensor string) ([]byte, error) {
		payload, err := blobframe.Open(frame, kind, step)
		if err != nil {
			s.quarantineLocked(step)
			return nil, corruptErr(step, "fetch", tensor, err)
		}
		return payload, nil
	}
	jp, err := open(jb, 'J', "J")
	if err != nil {
		return err
	}
	cp, err := open(cb, 'C', "C")
	if err != nil {
		return err
	}
	jv := takeBuf(&s.freeJ, s.jLen)
	cv := takeBuf(&s.freeC, s.cLen)
	t0 := s.model.Now()
	s.restart()
	if err := s.jc.Decompress(jv, jp, nil); err != nil {
		s.parkFrame(jv, cv)
		s.quarantineLocked(step)
		return corruptErr(step, "fetch", "J", err)
	}
	if err := s.cc.Decompress(cv, cp, nil); err != nil {
		s.parkFrame(jv, cv)
		s.quarantineLocked(step)
		return corruptErr(step, "fetch", "C", err)
	}
	d := s.model.Now().Sub(t0)
	s.model.ObserveDecompress(int(s.frameBytes), d)
	s.stats.DecompressTime += d
	s.ob.decompressSec.AddDuration(d)
	s.adoptHot(step, jv, cv)
	return nil
}

// installHot copies jv/cv into a recycled hot frame for step.
func (s *TieredStore) installHot(step int, jv, cv []float64) {
	s.adoptHot(step, copyBuf(&s.freeJ, jv), copyBuf(&s.freeC, cv))
}

// adoptHot makes jv/cv (owned by the store from here on) step's hot frame,
// records the sidecars and counts the frame resident.
func (s *TieredStore) adoptHot(step int, jv, cv []float64) {
	st := s.steps[step]
	st.j, st.c = jv, cv
	st.jSum = blobframe.ChecksumFloat64(jv)
	st.cSum = blobframe.ChecksumFloat64(cv)
	s.bumpResident(s.frameBytes)
}

// readSpill reads a step's sealed blobs back from the spill device. Read
// failures after retries are degradable (the record cannot be produced),
// mirroring DiskStore.
func (s *TieredStore) readSpill(step int) (jb, cb []byte, err error) {
	st := s.steps[step]
	need := st.jbN + st.cbN
	if cap(s.scratch) < need {
		s.bumpResident(int64(need - cap(s.scratch))) // scratch is real resident memory
		s.scratch = make([]byte, need)
	}
	t0 := s.model.Now()
	jb = s.scratch[:st.jbN]
	cb = s.scratch[st.jbN:need]
	read := func(dst []byte, off int64, tensor string) error {
		if rerr := s.spill.ReadAt(dst, off); rerr != nil {
			s.quarantineLocked(step)
			return &StepError{Step: step, Op: "fetch", Tensor: tensor, Degradable: true, Err: rerr}
		}
		return nil
	}
	if err = read(jb, st.jOff, "J"); err != nil {
		return nil, nil, err
	}
	if err = read(cb, st.cOff, "C"); err != nil {
		return nil, nil, err
	}
	d := s.model.Now().Sub(t0)
	s.model.ObserveDiskRead(need, d)
	s.ob.ioSec.AddDuration(d)
	return jb, cb, nil
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
	if st.released || st.tier == tiersched.Hot {
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
		if s.closed || st.released || st.inUse || st.tier == tiersched.Hot {
			return
		}
		if s.materialize(step) == nil {
			st.prefetched = true
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
	switch st.tier {
	case tiersched.Compressed:
		s.bumpResident(-int64(st.jbN + st.cbN))
		st.jBlob, st.cBlob = nil, nil
	case tiersched.Hot:
		s.freeHot(st)
	}
	st.tier = tiersched.Hot
	s.installHot(step, jVals, cVals)
	// A released step may be healed and refetched by the degradation
	// ladder (sharedSource releases the base copy immediately): repair
	// revives it.
	st.released = false
	delete(s.quarantined, step)
	s.stats.Repairs++
	if from != tiersched.Hot {
		s.notePromote(step, from)
	}
	s.enforceBudget(step)
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
	s.freeHot(st)
	if st.tier == tiersched.Compressed {
		s.bumpResident(-int64(st.jbN + st.cbN))
	}
	st.jBlob, st.cBlob = nil, nil
	st.released = true
	st.inUse = false
}

// Stats implements Store.
func (s *TieredStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotTiersLocked()
	st := s.stats
	st.BudgetBytes = s.cfg.BudgetBytes
	if s.spill != nil {
		st.IOTime = s.spill.IOTime()
		st.DiskRetries = s.spill.Retries()
		st.FsyncTime = s.spill.FsyncTime()
		st.Fsyncs = s.spill.Fsyncs()
	}
	return st
}

// Close implements Store: drain the prefetch, then drop everything and
// remove the spill file. Idempotent.
func (s *TieredStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.prefetchWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.steps = nil
	s.scratch = nil
	s.freeJ, s.freeC = nil, nil
	if s.spill != nil {
		return s.spill.Close()
	}
	return nil
}
