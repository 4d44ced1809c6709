package jactensor

import (
	"fmt"

	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/sparse"
	"masc/internal/tiersched"
)

// AutoStore is the adaptive-codec front of the compressed store (the "auto"
// storage strategy): instead of committing the run to one codec up front, it
// buffers the first TrialSteps captured steps, trials every candidate codec
// pair on them, scores each on bytes saved per second of compression, and
// commits to the winner by building a CompressedStore with fresh winner
// codecs and replaying the buffered steps through it. From that point every
// call delegates to the inner store.
//
// Because the winner's codecs are rebuilt fresh and the replay re-issues the
// exact Put sequence, the inner store's blob stream is byte-identical to a
// run that had selected that codec from step 0 — the trial costs only the
// trial compressions plus one bounded plaintext buffer (TrialSteps frames of
// each tensor), never wire-format divergence. Lossy candidates (spicemate)
// are trialed for the scoreboard but never committed: the store's contract
// is bit-exact sensitivities.
type AutoStore struct {
	cfg AutoConfig

	bufJ, bufC [][]float64 // trial buffer: private copies of steps 0..K-1

	inner    *CompressedStore
	selected string
	trials   []compress.TrialResult

	// Wiring recorded before commit and applied to the inner store at build
	// time (the store's Set* hooks must run before its first Put).
	pendObs      *obs.Observer
	pendScope    span.ID
	hasScope     bool
	pendFault    *faultinject.Injector
	anchorEvery  int
	forwardEnded bool

	ob autoObs
}

// AutoCandidate is one codec entry of the autopilot's menu. New must return
// a fresh J/C compressor pair on every call: one pair is consumed by the
// trial (advancing its calibration state), and the winner gets another
// untouched pair for the committed store.
type AutoCandidate struct {
	Name string
	New  func() (jc, cc compress.Compressor)
}

// AutoConfig configures an AutoStore.
type AutoConfig struct {
	// Candidates is the trial menu, best-known-default first: ties and
	// unresolvable trials fall back to the earliest committable entry.
	Candidates []AutoCandidate
	// TrialSteps is the number of captured steps buffered and trialed before
	// committing (default 8). Short runs commit at EndForward with whatever
	// was buffered.
	TrialSteps int
	// Async / PipelineDepth build the committed store in pipelined mode.
	Async         bool
	PipelineDepth int
	// JPat/CPat are the patterns of the first and second tensor (G and C in
	// the facade); they contribute the shared-index footprint to the stats,
	// as for NewCompressedStore.
	JPat, CPat *sparse.Pattern
	// Clock injects trial timing (nil = wall clock) so tests can make
	// selection deterministic.
	Clock tiersched.Clock
}

// DefaultTrialSteps is the trial window used when AutoConfig.TrialSteps <= 0.
const DefaultTrialSteps = 8

// NewAutoStore returns an adaptive store over the candidate menu.
func NewAutoStore(cfg AutoConfig) (*AutoStore, error) {
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("jactensor: auto store needs at least one candidate codec")
	}
	if cfg.TrialSteps <= 0 {
		cfg.TrialSteps = DefaultTrialSteps
	}
	return &AutoStore{cfg: cfg}, nil
}

// autoObs is the trial-telemetry handle bundle; zero value = disabled.
type autoObs struct {
	selected map[string]*obs.Gauge
	score    map[string]*obs.Gauge
	ratio    map[string]*obs.Gauge
	trialSec map[string]*obs.Counter
}

// SetObserver attaches telemetry: the masc_codec_trial_* and
// masc_codec_selected families are registered eagerly (one series per
// candidate), and the handle is forwarded to the committed store at build
// time. Call before the first Put.
func (s *AutoStore) SetObserver(o *obs.Observer) {
	s.pendObs = o
	reg := o.Registry()
	s.ob = autoObs{
		selected: map[string]*obs.Gauge{},
		score:    map[string]*obs.Gauge{},
		ratio:    map[string]*obs.Gauge{},
		trialSec: map[string]*obs.Counter{},
	}
	for _, cand := range s.cfg.Candidates {
		lbl := []string{"codec", cand.Name}
		s.ob.selected[cand.Name] = reg.Gauge("masc_codec_selected",
			"1 for the codec the auto storage committed the run to, 0 for the losers.", lbl...)
		s.ob.score[cand.Name] = reg.Gauge("masc_codec_trial_score",
			"Auto-selection trial score: bytes saved per second of compression.", lbl...)
		s.ob.ratio[cand.Name] = reg.Gauge("masc_codec_trial_ratio",
			"Compression ratio (raw/compressed) measured over the trial steps.", lbl...)
		s.ob.trialSec[cand.Name] = reg.Counter("masc_codec_trial_seconds_total",
			"Wall time spent in auto-selection trial compressions.", lbl...)
	}
}

// SetSpanScope records the fallback span parent for the committed store.
func (s *AutoStore) SetSpanScope(id span.ID) {
	s.pendScope, s.hasScope = id, true
	if s.inner != nil {
		s.inner.SetSpanScope(id)
	}
}

// SetFault forwards a fault injector to the committed store.
func (s *AutoStore) SetFault(in *faultinject.Injector) {
	s.pendFault = in
	if s.inner != nil {
		s.inner.SetFault(in)
	}
}

// SetAnchorEvery records the anchor cadence for the committed store; like
// the compressed store's, it must be called before the first Put.
func (s *AutoStore) SetAnchorEvery(k int) {
	s.anchorEvery = k
	if s.inner != nil {
		s.inner.SetAnchorEvery(k)
	}
}

// Async reports whether the committed store runs the pipelined mode.
func (s *AutoStore) Async() bool { return s.cfg.Async }

// Selected returns the committed codec's name and the per-candidate trial
// scorecards; ok is false before the selection has been made.
func (s *AutoStore) Selected() (name string, trials []compress.TrialResult, ok bool) {
	if s.inner == nil {
		return "", nil, false
	}
	return s.selected, s.trials, true
}

// PredictorStats delegates to the committed store (masczip winners only).
func (s *AutoStore) PredictorStats() (j, c masczip.Stats, ok bool) {
	if s.inner == nil {
		return j, c, false
	}
	return s.inner.PredictorStats()
}

// commit runs the trials, builds the winning store, and replays the
// buffered steps through it.
func (s *AutoStore) commit() error {
	results := make([]compress.TrialResult, 0, len(s.cfg.Candidates))
	for _, cand := range s.cfg.Candidates {
		jc, cc := cand.New()
		res := compress.RunTrial(compress.NewCandidate(cand.Name, jc, cc),
			s.bufJ, s.bufC, s.cfg.Clock)
		results = append(results, res)
	}
	win := compress.Pick(results)
	if win < 0 {
		// No committable candidate scored — impossible with the default
		// menu (masczip is lossless), but fail loudly rather than guess.
		return fmt.Errorf("jactensor: auto store has no committable codec candidate")
	}
	s.trials = results
	s.selected = results[win].Name

	for _, r := range results {
		if g := s.ob.selected[r.Name]; g != nil {
			if r.Name == s.selected {
				g.Set(1)
			} else {
				g.Set(0)
			}
			s.ob.score[r.Name].Set(r.Score)
			s.ob.ratio[r.Name].Set(r.Ratio())
			s.ob.trialSec[r.Name].AddDuration(r.CompressTime)
		}
	}

	// Fresh winner codecs: the trial pair's calibration state has advanced,
	// and the committed store must produce the same blob stream as a run
	// that used this codec from step 0.
	jc, cc := s.cfg.Candidates[win].New()
	if s.cfg.Async {
		s.inner = NewCompressedStoreAsync(jc, cc, s.cfg.JPat, s.cfg.CPat, s.cfg.PipelineDepth)
	} else {
		s.inner = NewCompressedStore(jc, cc, s.cfg.JPat, s.cfg.CPat)
	}
	if s.pendObs != nil {
		s.inner.SetObserver(s.pendObs)
	}
	if s.hasScope {
		s.inner.SetSpanScope(s.pendScope)
	}
	if s.pendFault != nil {
		s.inner.SetFault(s.pendFault)
	}
	if s.anchorEvery > 0 {
		s.inner.SetAnchorEvery(s.anchorEvery)
	}
	for i := range s.bufJ {
		if err := s.inner.Put(i, s.bufJ[i], s.bufC[i]); err != nil {
			return fmt.Errorf("jactensor: auto store replay step %d: %w", i, err)
		}
	}
	s.bufJ, s.bufC = nil, nil
	return nil
}

// Put implements Store: the first TrialSteps steps are buffered, the
// selection commits, and everything afterwards delegates.
func (s *AutoStore) Put(step int, jVals, cVals []float64) error {
	if s.inner != nil {
		return s.inner.Put(step, jVals, cVals)
	}
	if s.forwardEnded {
		return fmt.Errorf("jactensor: Put after EndForward")
	}
	if step != len(s.bufJ) {
		return fmt.Errorf("jactensor: put step %d out of order (expected %d)", step, len(s.bufJ))
	}
	if step > 0 && (len(jVals) != len(s.bufJ[0]) || len(cVals) != len(s.bufC[0])) {
		return fmt.Errorf("jactensor: step %d value counts changed (%d/%d vs %d/%d)",
			step, len(jVals), len(cVals), len(s.bufJ[0]), len(s.bufC[0]))
	}
	s.bufJ = append(s.bufJ, append([]float64(nil), jVals...))
	s.bufC = append(s.bufC, append([]float64(nil), cVals...))
	if len(s.bufJ) >= s.cfg.TrialSteps {
		return s.commit()
	}
	return nil
}

// EndForward implements Store. Runs shorter than the trial window commit
// here, on whatever steps were buffered.
func (s *AutoStore) EndForward() error {
	if s.inner == nil {
		s.forwardEnded = true
		if len(s.bufJ) == 0 {
			return fmt.Errorf("jactensor: EndForward with no steps")
		}
		if err := s.commit(); err != nil {
			return err
		}
	}
	return s.inner.EndForward()
}

// Fetch implements Store.
func (s *AutoStore) Fetch(step int) ([]float64, []float64, error) {
	if s.inner == nil {
		return nil, nil, fmt.Errorf("jactensor: Fetch before EndForward")
	}
	return s.inner.Fetch(step)
}

// Release implements Store.
func (s *AutoStore) Release(step int) {
	if s.inner != nil {
		s.inner.Release(step)
	}
}

// Repair implements the adjoint package's Repairer.
func (s *AutoStore) Repair(step int, jVals, cVals []float64) {
	if s.inner != nil {
		s.inner.Repair(step, jVals, cVals)
	}
}

// Stats implements Store. Before the selection commits it reports only the
// buffered footprint.
func (s *AutoStore) Stats() Stats {
	if s.inner != nil {
		return s.inner.Stats()
	}
	var st Stats
	st.Steps = len(s.bufJ)
	for i := range s.bufJ {
		st.RawBytes += int64(8 * (len(s.bufJ[i]) + len(s.bufC[i])))
	}
	st.PeakResident = st.RawBytes
	return st
}

// Close implements Store.
func (s *AutoStore) Close() error {
	s.bufJ, s.bufC = nil, nil
	if s.inner != nil {
		return s.inner.Close()
	}
	return nil
}

// AnchorSteps exposes the committed store's window-boundary menu so the
// windowed adjoint engine can slice an auto store like a plain compressed
// store.
func (s *AutoStore) AnchorSteps() []int {
	if s.inner == nil {
		return nil
	}
	return s.inner.AnchorSteps()
}

// Slice returns a window-local view over the committed store.
func (s *AutoStore) Slice(lo, hi int) (*StoreSlice, error) {
	if s.inner == nil {
		return nil, fmt.Errorf("jactensor: Slice before EndForward")
	}
	return s.inner.Slice(lo, hi)
}
