package jactensor

import (
	"fmt"

	"masc/internal/compress"
	"masc/internal/obs"
	"masc/internal/sparse"
	"masc/internal/tiersched"
)

// The "auto" storage strategy is a codec choice inside CompressedStore, not
// a store of its own: instead of committing the run to one codec up front,
// the store starts with no codecs, parks private copies of the first
// TrialSteps captured steps, trials every candidate codec pair on them,
// scores each on bytes saved per second of compression, binds fresh winner
// codecs and replays the parked steps through put — the path every later
// step takes.
//
// Because the winner's codecs are rebuilt fresh and the replay re-issues the
// exact put sequence, the blob stream is byte-identical to a run that had
// selected that codec from step 0 — the trial costs only the trial
// compressions plus one bounded plaintext buffer (TrialSteps frames of each
// tensor, which the resident model does not count: they are gone before the
// store holds anything else), never wire-format divergence. Lossy candidates
// (spicemate) are trialed for the scoreboard but never bound: the store's
// contract is bit-exact sensitivities.

// AutoCandidate is one codec entry of the autopilot's menu. New must return
// a fresh J/C compressor pair on every call: one pair is consumed by the
// trial (advancing its calibration state), and the winner gets another
// untouched pair for the store.
type AutoCandidate struct {
	Name string
	New  func() (jc, cc compress.Compressor)
}

// AutoConfig configures NewAutoStore.
type AutoConfig struct {
	// Candidates is the trial menu, best-known-default first: ties and
	// unresolvable trials fall back to the earliest committable entry.
	Candidates []AutoCandidate
	// TrialSteps is the number of captured steps parked and trialed before
	// binding (default 8). Short runs bind at EndForward with whatever was
	// parked.
	TrialSteps int
	// Async / PipelineDepth build the store in pipelined mode.
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

// autoTrial is the state of a store whose codecs are still unbound.
type autoTrial struct {
	cfg     AutoConfig
	parkedJ [][]float64 // private copies of steps 0..K-1
	parkedC [][]float64
	parkedX [][]float64 // their states: the attachment's references, nil without one
	ob      autoObs
}

// NewAutoStore returns a compressed store that picks its codecs from the
// candidate menu on the first captured steps.
func NewAutoStore(cfg AutoConfig) (*CompressedStore, error) {
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("jactensor: auto store needs at least one candidate codec")
	}
	if cfg.TrialSteps <= 0 {
		cfg.TrialSteps = DefaultTrialSteps
	}
	var s *CompressedStore
	if cfg.Async {
		s = NewCompressedStoreAsync(nil, nil, cfg.JPat, cfg.CPat, cfg.PipelineDepth)
	} else {
		s = NewCompressedStore(nil, nil, cfg.JPat, cfg.CPat)
	}
	s.trial = &autoTrial{cfg: cfg}
	return s, nil
}

// Selected returns the codec a trial bound the store to and the
// per-candidate scorecards; ok is false before the selection has been made,
// and always for a store built over given codecs.
func (s *CompressedStore) Selected() (name string, trials []compress.TrialResult, ok bool) {
	return s.selected, s.trials, s.selected != ""
}

// park keeps a private copy of an admitted step, and its state, for the
// trial, and binds once the window is full.
func (s *CompressedStore) park(jVals, cVals, x []float64) error {
	t := s.trial
	t.parkedJ = append(t.parkedJ, append([]float64(nil), jVals...))
	t.parkedC = append(t.parkedC, append([]float64(nil), cVals...))
	t.parkedX = append(t.parkedX, x)
	if len(t.parkedJ) >= t.cfg.TrialSteps {
		return s.bind()
	}
	return nil
}

// bind runs the trials, binds the winner's codecs and replays the parked
// steps.
func (s *CompressedStore) bind() error {
	t := s.trial
	results := make([]compress.TrialResult, 0, len(t.cfg.Candidates))
	for _, cand := range t.cfg.Candidates {
		jc, cc := cand.New()
		results = append(results, compress.RunTrial(compress.NewCandidate(cand.Name, jc, cc),
			t.parkedJ, t.parkedC, t.parkedX, t.cfg.Clock))
	}
	win := compress.Pick(results)
	if win < 0 {
		// No committable candidate scored — impossible with the default
		// menu (masczip is lossless), but fail loudly rather than guess.
		return fmt.Errorf("jactensor: auto store has no committable codec candidate")
	}
	s.trials, s.selected = results, results[win].Name
	t.ob.publish(results, s.selected)

	// Fresh winner codecs: the trial pair's calibration state has advanced,
	// and the store must produce the same blob stream as a run that used
	// this codec from step 0.
	jc, cc := t.cfg.Candidates[win].New()
	s.cd = newCodecs(jc, cc)
	s.cd.trace(s.ob.rec)
	s.trial = nil
	for i := range t.parkedJ {
		if err := s.put(i, t.parkedJ[i], t.parkedC[i], t.parkedX[i]); err != nil {
			return fmt.Errorf("jactensor: auto store replay step %d: %w", i, err)
		}
	}
	return nil
}

// autoObs is the trial-telemetry handle bundle; zero value = disabled.
type autoObs struct {
	selected map[string]*obs.Gauge
	score    map[string]*obs.Gauge
	ratio    map[string]*obs.Gauge
	trialSec map[string]*obs.Counter
}

// newAutoObs registers the masc_codec_trial_* and masc_codec_selected
// families eagerly, one series per candidate.
func newAutoObs(o *obs.Observer, cands []AutoCandidate) autoObs {
	reg := o.Registry()
	ao := autoObs{
		selected: map[string]*obs.Gauge{},
		score:    map[string]*obs.Gauge{},
		ratio:    map[string]*obs.Gauge{},
		trialSec: map[string]*obs.Counter{},
	}
	for _, cand := range cands {
		lbl := []string{"codec", cand.Name}
		ao.selected[cand.Name] = reg.Gauge("masc_codec_selected",
			"1 for the codec the auto storage committed the run to, 0 for the losers.", lbl...)
		ao.score[cand.Name] = reg.Gauge("masc_codec_trial_score",
			"Auto-selection trial score: bytes saved per second of compression.", lbl...)
		ao.ratio[cand.Name] = reg.Gauge("masc_codec_trial_ratio",
			"Compression ratio (raw/compressed) measured over the trial steps.", lbl...)
		ao.trialSec[cand.Name] = reg.Counter("masc_codec_trial_seconds_total",
			"Wall time spent in auto-selection trial compressions.", lbl...)
	}
	return ao
}

// publish mirrors the scorecards and the selection into the gauges.
func (ao *autoObs) publish(results []compress.TrialResult, selected string) {
	for _, r := range results {
		if g := ao.selected[r.Name]; g != nil {
			g.Set(float64(boolAttr(r.Name == selected)))
			ao.score[r.Name].Set(r.Score)
			ao.ratio[r.Name].Set(r.Ratio())
			ao.trialSec[r.Name].AddDuration(r.CompressTime)
		}
	}
}
