package jactensor

import (
	"sort"

	"masc/internal/blobframe"
)

// SetAnchorEvery makes every k-th step a window anchor: the prediction
// chain restarts there (the anchor's blob is compressed with no reference
// and, when the codec supports it, freshly re-calibrated tables) and the
// anchor's plaintext stays resident as a restart checkpoint for windowed
// reverse sweeps. k <= 0 disables anchoring (the default). Call before the
// first Put; anchoring an in-flight forward pass is not supported.
func (s *CompressedStore) SetAnchorEvery(k int) {
	if s.n >= 0 {
		return
	}
	if k < 0 {
		k = 0
	}
	s.anchorEvery = k
}

// isAnchorStep reports whether step is an interior chain cut. Step 0 and
// the head step n are never anchors: 0 has nothing below it and n's
// plaintext is already retained by EndForward.
func (s *CompressedStore) isAnchorStep(step int) bool {
	return s.anchorEvery > 0 && step > 0 && step%s.anchorEvery == 0
}

// restartCodecs cuts the codecs' prediction state (Markov counts,
// calibration phase) ahead of compressing an anchor frame. Codecs without
// an explicit restart still get a value-chain cut via the nil reference.
func (s *CompressedStore) restartCodecs() {
	type restarter interface{ Restart() }
	if r, ok := s.jc.(restarter); ok {
		r.Restart()
	}
	if r, ok := s.cc.(restarter); ok {
		r.Restart()
	}
}

// retainAnchorLocked records jv/cv as step's resident anchor plaintext,
// taking ownership of the slices. The CRC sidecars are computed first and
// the fault injector runs after — the same at-rest-rot window MemStore
// models. countResident is true when the slices are new memory (sync mode
// copies); async mode hands over buffers that are already counted.
// mu must be held in async mode.
func (s *CompressedStore) retainAnchorLocked(step int, jv, cv []float64, countResident bool) {
	s.anchorJSum[step] = blobframe.ChecksumFloat64(jv)
	s.anchorCSum[step] = blobframe.ChecksumFloat64(cv)
	s.fault.MutateFloats(step, jv)
	s.fault.MutateFloats(step, cv)
	s.anchorJ[step] = jv
	s.anchorC[step] = cv
	b := int64(8 * (len(jv) + len(cv)))
	s.stats.AnchorBytes += b
	if countResident {
		s.bumpResident(b)
	}
	s.ob.anchorBytes.Set(float64(s.stats.AnchorBytes))
}

// anchorPlainLocked verifies and returns step's retained anchor frame.
// A checksum mismatch drops the anchor (freeing its memory) and returns
// ok=false: the caller falls back to decoding the step's self-contained
// blob, so anchor rot degrades to a slower fetch, not an error.
// mu must be held.
func (s *CompressedStore) anchorPlainLocked(step int) (jv, cv []float64, ok bool) {
	jv, ok = s.anchorJ[step]
	if !ok {
		return nil, nil, false
	}
	cv = s.anchorC[step]
	if blobframe.ChecksumFloat64(jv) != s.anchorJSum[step] ||
		blobframe.ChecksumFloat64(cv) != s.anchorCSum[step] {
		s.dropAnchorLocked(step)
		return nil, nil, false
	}
	return jv, cv, true
}

// dropAnchorLocked discards a rotted anchor frame and accounts the loss.
// mu must be held.
func (s *CompressedStore) dropAnchorLocked(step int) {
	jv, cv := s.anchorJ[step], s.anchorC[step]
	b := int64(8 * (len(jv) + len(cv)))
	delete(s.anchorJ, step)
	delete(s.anchorC, step)
	delete(s.anchorJSum, step)
	delete(s.anchorCSum, step)
	s.stats.AnchorBytes -= b
	s.stats.CorruptBlobs++
	s.bumpResident(-b)
	s.poolJ = append(s.poolJ, jv)
	s.poolC = append(s.poolC, cv)
	s.ob.anchorBytes.Set(float64(s.stats.AnchorBytes))
	s.ob.corrupt.Inc()
}

// fetchAnchor serves a Fetch of an anchor step from the retained frame:
// the plaintext is copied into the reverse-sweep cache (so the usual
// Release semantics apply to the copy while the master frame stays for the
// next window or sweep). ok=false means the anchor is absent or rotted and
// the caller should decode the step's self-contained blob instead.
func (s *CompressedStore) fetchAnchor(step int) (jv, cv []float64, ok bool) {
	s.mu.Lock()
	aj, ac, ok := s.anchorPlainLocked(step)
	if !ok {
		s.mu.Unlock()
		return nil, nil, false
	}
	jv = copyBuf(&s.poolJ, aj)
	cv = copyBuf(&s.poolC, ac)
	s.plainJ[step] = jv
	s.plainC[step] = cv
	s.bumpResident(int64(8 * (len(jv) + len(cv))))
	s.mu.Unlock()
	s.ob.fetches.Inc()
	return jv, cv, true
}

// AnchorSteps returns the chain-cut layout of the finished forward pass:
// every interior anchor step in ascending order, with the head step n
// appended (the head's plaintext is retained by EndForward, so it behaves
// as the top anchor). Windowed sweeps slice the trajectory at exactly
// these steps. Returns nil before EndForward.
func (s *CompressedStore) AnchorSteps() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.forwardDone || s.n < 0 {
		return nil
	}
	steps := make([]int, 0, len(s.anchorJ)+1)
	for st := range s.anchorJ {
		// The head is appended below; when the trajectory length is an
		// exact multiple of the anchor spacing it is also a chain-cut step,
		// and listing it twice would degenerate the window split.
		if st != s.n {
			steps = append(steps, st)
		}
	}
	sort.Ints(steps)
	return append(steps, s.n)
}
