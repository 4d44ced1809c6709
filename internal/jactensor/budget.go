package jactensor

// A memory budget on the chain (SetBudget). At seal time step t's blob is kept
// only while
//
//	arena used + len(blob) + reserve ≤ budget
//
// — the reserve is the most plaintext either window holds: depth+1 frames
// (the step being sealed or decoded and the depth above it), each at the most
// a frame costs there, held in blocks — its values padded to whole blocks,
// and the block index: 1/32 more than a flat frame, more on small tensors.
// The first refusal ends admission: that step and every later one are
// dropped, the forward window lets their frames go, and the codec sees no
// further step. The kept steps are therefore a prefix [0, k), and each of
// them is coded against the steps above it exactly as without a budget, so a
// budget the whole chain fits under changes nothing, to the byte.
//
// The reverse sweep re-derives a dropped step through the RecomputeFunc
// (SetRecompute) into the reader's window, as Repair installs a quarantined
// step, so kept step k−1 decodes against recomputed frames k…k+depth−1. A
// recomputed frame stays in the window only while a kept step below it still
// decodes against it. A budget below the reserve keeps nothing from step 0
// on: the forward pass holds no frame and nothing meets the codec.
//
// Keeping the first steps that fit is as good as any other choice: the sweep
// reads every step once and a recomputation costs the same whichever step it
// is, so only how many steps are kept moves the sweep's cost. Admission
// depends on frame and blob sizes alone, so identical runs — sync or async —
// keep the same steps. Every step comes back bit-exact: a kept one through the
// lossless codec, a dropped one re-evaluated from the trajectory.

import (
	"errors"
	"fmt"
	"time"

	"masc/internal/compress"
	"masc/internal/obs/span"
)

// RecomputeFunc re-derives one step's pair (first tensor, second tensor)
// from the forward trajectory. The returned slices may alias callee scratch;
// the store copies them. It must be bit-exact with what Put recorded for the
// step — adjoint.RecomputeSource's Pair is, for a store fed (G, C), and its
// Fetch for one fed (J, C).
type RecomputeFunc func(step int) (jVals, cVals []float64, err error)

// SetBudget caps the store's modelled resident bytes (the arena plus the
// windows' plaintext) at bytes by the admission rule above; <= 0 means none.
// The cap holds up to one frame in flight (a fetch materializing a step while
// the sweep holds the one above it) and, in async mode, the
// frames waiting in the compression queue. Call it before the first Put.
func (s *CompressedStore) SetBudget(bytes int64) {
	if s.stats.Steps == 0 {
		s.budget = max(bytes, 0)
		s.stats.BudgetBytes = s.budget
	}
}

// SetRecompute installs the path a dropped step's Fetch re-derives its
// tensors through. Without it a dropped step surfaces as a degradable
// StepError, which the adjoint sweep's degradation ladder also handles — the
// hook keeps planned drops out of the run's DegradedSteps. Call it any time
// before the first Fetch (the facade does so after the forward pass, when the
// trajectory exists).
func (s *CompressedStore) SetRecompute(fn RecomputeFunc) {
	s.mu.Lock()
	s.recompute = fn
	s.mu.Unlock()
}

// reserve is the plaintext the budget keeps back for the windows.
func (s *CompressedStore) reserve() int64 { return ReserveBytes(s.depth, s.lens[:]...) }

// ReserveBytes is the most plaintext the window of a chain whose codecs read
// depth frames holds over tensors of the given value counts: depth+1 frames,
// in blocks where the window holds any (depth > 1). A budget must exceed it by
// a blob for the chain to keep any step.
func ReserveBytes(depth int, lens ...int) int64 {
	frame := int64(0)
	for _, n := range lens {
		if depth > 1 {
			frame += blockedBytes(n)
		} else {
			frame += int64(8 * n)
		}
	}
	return int64(depth+1) * frame
}

// blockedBytes is what n values cost held in blocks none of which is shared:
// the blocks, the last one padded, and the index of their pointers.
func blockedBytes(n int) int64 {
	return int64(8 * compress.NumBlocks(n) * (compress.BlockLen + 1))
}

// fits reports whether a sealed pair of n bytes may join the arena. mu must
// be held.
func (s *CompressedStore) fits(n int) bool {
	return s.budget <= 0 || s.arena.used+int64(n)+s.reserve() <= s.budget
}

// dropped reports whether step was refused a blob. mu must be held.
func (s *CompressedStore) dropped(step int) bool { return step >= s.dropFrom }

// unread reports whether no kept step decodes against step's frame: the
// kept steps are below dropFrom, and a step's frame is read by the depth
// steps below it. mu must be held.
func (s *CompressedStore) unread(step int) bool { return s.dropped(max(step-s.depth, 0)) }

// dropFromStep ends admission at step, whose sealed pair of blobBytes did not
// fit (0: none was made): it and every later step are dropped, and the forward
// window lets their frames go. The decision is one tier_decision span with the
// sizes it was made on. mu must be held.
func (s *CompressedStore) dropFromStep(step, blobBytes int, parent span.ID) {
	s.dropFrom = step
	for _, st := range s.steps[step:] {
		s.giveBack(&st.heldFrame)
	}
	tsp := s.ob.rec.Start(parent, span.TierDecision, step)
	tsp.Attr("arena_bytes", s.arena.used)
	tsp.Attr("blob_bytes", int64(blobBytes))
	tsp.Attr("reserve_bytes", s.reserve())
	tsp.Attr("budget_bytes", s.budget)
	tsp.End()
}

// recomputeStep re-derives dropped step's plaintext into a counted pooled
// frame, the caller's to install; after Close it fails with ErrClosed. mu
// must not be held.
func (s *CompressedStore) recomputeStep(step int) (tensors, error) {
	s.mu.Lock()
	fn := s.recompute
	s.mu.Unlock()
	if fn == nil {
		return tensors{}, &StepError{Step: step, Op: "fetch", degradable: true,
			Err: errors.New("step dropped under the memory budget (no recompute hook)")}
	}
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Recompute, step)
	var got tensors
	var err error
	got[0], got[1], err = fn(step)
	if err == nil && got.lens() != s.lens {
		err = fmt.Errorf("%v values, the step had %v", got.lens(), s.lens)
	}
	rsp.Attr("ok", boolAttr(err == nil))
	rsp.End()
	if err != nil {
		return tensors{}, &StepError{Step: step, Op: "fetch", degradable: true,
			Err: fmt.Errorf("recompute dropped step: %w", err)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arena.closed {
		return tensors{}, closedErr(step) // Close raced an abandoned fetcher
	}
	s.stats.TierRecomputes++
	s.ob.recomputes.Inc()
	out := s.copyFrame(got)
	s.bumpResident(s.frameBytes)
	return out, nil
}

// TieredStore is the budgeted chain.
//
// Deprecated: use CompressedStore with SetBudget.
type TieredStore = CompressedStore

// TieredConfig configures NewTieredStore.
//
// Deprecated: use CompressedStore with SetBudget.
type TieredConfig struct {
	// BudgetBytes is the store's SetBudget.
	BudgetBytes int64
	// Deprecated: ignored; no store spills under a budget.
	DiskDir string
	// Deprecated: ignored; no store spills under a budget.
	DiskBytesPerSec float64
}

// NewTieredStore returns a synchronous CompressedStore over jc and cc under
// cfg.BudgetBytes.
//
// Deprecated: use NewCompressedStore and SetBudget.
func NewTieredStore(jc, cc compress.Compressor, cfg TieredConfig) *TieredStore {
	s := NewCompressedStore(jc, cc, nil, nil)
	s.SetBudget(cfg.BudgetBytes)
	return s
}

// ObserveStepCost does nothing.
//
// Deprecated: admission depends on sizes alone.
func (s *CompressedStore) ObserveStepCost(time.Duration) {}
