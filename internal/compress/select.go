package compress

import (
	"time"

	"masc/internal/tiersched"
)

// Codec auto-selection ("auto" storage): before committing a run to one
// compressor, the store trials each candidate on the first captured steps
// and scores it on bytes saved per second of compression — the quantity the
// MASC paper's Table 3 trades off (compression ratio is worthless if the
// codec cannot keep up with the solver, and raw speed is worthless if
// nothing shrinks). The winner re-encodes the trial frames and carries the
// rest of the run.

// Candidate is one codec pair entered into an auto-selection trial: a J
// and a C compressor, fresh instances private to the trial (codec state is
// per-run). Committable reports whether the pair may carry the run — lossy
// codecs are trialed for the scoreboard but never committed, since the
// store's contract is bit-exact sensitivities.
type Candidate struct {
	Name string
	J, C Compressor
	// Committable is resolved by NewCandidate from the codecs' Lossless.
	Committable bool
}

// NewCandidate bundles a codec pair, deriving Committable from losslessness.
func NewCandidate(name string, j, c Compressor) Candidate {
	return Candidate{Name: name, J: j, C: c,
		Committable: j.Lossless() && c.Lossless()}
}

// TrialResult is one candidate's scorecard over the trial frames.
type TrialResult struct {
	Name        string
	Committable bool
	// RawBytes / CompressedBytes are the trial totals over both tensors.
	RawBytes        int64
	CompressedBytes int64
	// CompressTime is the wall time the trial's Compress calls took.
	CompressTime time.Duration
	// Score is bytes saved per second of compression: (raw − compressed) /
	// seconds. A codec that inflates scores negative; one whose timing was
	// too fast to resolve is scored on a one-nanosecond floor.
	Score float64
}

// Ratio returns the trial compression ratio (raw/compressed), 0 if empty.
func (t TrialResult) Ratio() float64 {
	if t.CompressedBytes == 0 {
		return 0
	}
	return float64(t.RawBytes) / float64(t.CompressedBytes)
}

// RunTrial scores one candidate over the buffered forward frames, feeding
// the codec pair what the compressed store's forward pass would: frame i
// encoded against the frames above it (Algorithm 2's direction) — as many as
// the codec reads — and, where states holds every step's, their states; the
// head frame unreferenced. jFrames and cFrames hold the same steps of the two
// tensors, states (nil, or entries nil, for none) the states those steps were
// produced at. clock injects time (nil = wall clock) so tests can score
// deterministically.
//
// Each tensor gets one unscored warm-up pass before the scored one. The
// warm-up serves two ends: caches and branch predictors are hot when the
// timer runs (otherwise the first candidate in a menu pays the page-in cost
// for everyone), and calibrating codecs (the Markov selector) score with a
// warmed model — the selection should reflect the steady state that
// dominates a long run, not the first-K-steps cold start. The trial pair is
// discarded after scoring, so the extra codec state the warm-up accumulates
// never reaches the committed store.
func RunTrial(cand Candidate, jFrames, cFrames, states [][]float64, clock tiersched.Clock) TrialResult {
	if clock == nil {
		clock = tiersched.Wall()
	}
	res := TrialResult{Name: cand.Name, Committable: cand.Committable}
	// One pass accumulator per scored repetition; the best pass (highest
	// score) is the candidate's result, so a scheduler hiccup in one pass
	// cannot misrank codecs whose true rates are close.
	type pass struct {
		meter     tiersched.RateMeter
		raw, comp int64
	}
	passes := make([]pass, trialReps)
	encode := func(codec Compressor, frames [][]float64, p *pass) {
		var dst []byte
		for i := 0; i < len(frames); i++ {
			hist := frames[i+1 : min(i+1+HistoryDepth(codec), len(frames))]
			xs := StatesAt(states, i, len(hist))
			if p == nil {
				dst = Encode(codec, dst[:0], frames[i], hist, xs)
				continue
			}
			start := clock.Now()
			dst = Encode(codec, dst[:0], frames[i], hist, xs)
			p.meter.Observe(8*len(frames[i]), clock.Now().Sub(start))
			p.raw += int64(8 * len(frames[i]))
			p.comp += int64(len(dst))
		}
	}
	encode(cand.J, jFrames, nil)
	for r := range passes {
		encode(cand.J, jFrames, &passes[r])
	}
	encode(cand.C, cFrames, nil)
	for r := range passes {
		encode(cand.C, cFrames, &passes[r])
	}
	best := -1
	bestScore := 0.0
	for r := range passes {
		sec := passes[r].meter.Seconds()
		if sec <= 0 {
			sec = 1e-9 // clock too coarse to resolve the pass: floor, not inf
		}
		score := float64(passes[r].raw-passes[r].comp) / sec
		if best < 0 || score > bestScore {
			best, bestScore = r, score
		}
	}
	res.RawBytes = passes[best].raw
	res.CompressedBytes = passes[best].comp
	res.CompressTime = time.Duration(passes[best].meter.Seconds() * 1e9)
	res.Score = bestScore
	return res
}

// trialReps is the number of scored passes per candidate; the best pass
// wins, squeezing scheduler noise out of the timing comparison.
const trialReps = 3

// Pick returns the index of the winning candidate among the trial results:
// the committable result with the strictly greatest Score. Earlier entries
// win ties — callers list the MASC default first, so "no codec is
// measurably better" falls back to masczip. Returns -1 when no result is
// committable (callers then keep their built-in default).
func Pick(results []TrialResult) int {
	best := -1
	for i, r := range results {
		if !r.Committable {
			continue
		}
		if best < 0 || r.Score > results[best].Score {
			best = i
		}
	}
	return best
}
