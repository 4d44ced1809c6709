package jactensor

import (
	"errors"
	"fmt"

	"masc/internal/compress"
	"masc/internal/obs/span"
)

// The chain's one reverse reader — Algorithm 2's reverse step: fetch step i by
// decoding it against the already-materialized steps above it, release step
// i+1 once nothing below reads it. Its window is the step records' frames, so
// the head frame EndForward keeps — the head's only copy, for it has no blob —
// is read in place, and the forward pass's seals gather their history from the
// same frames. The blobs are immutable once the forward pass has ended;
// everything else here is touched under the store's mutex.

// frameAt is step's frame in the window: nil for a step the chain does not
// have, and for every step once Close has dropped the records. mu must be
// held.
func (s *CompressedStore) frameAt(step int) *heldFrame {
	if step < 0 || step >= len(s.steps) {
		return nil
	}
	return &s.steps[step].heldFrame
}

// gather collects, nearest first, the frames of the window that step's blob
// is — or was — sealed against: up to depth resident ones above it; and the
// states of step and of those frames' steps, when every one of them has one.
// It places the window as the codec reads it (held): step's own frame, when
// resident, and the nearest are flat; a frame past the nearest is paged to
// blocks unless the sweep still holds it or it holds the flat array of the
// frame below, which stays flat — a frame at no cost. Which stay flat is
// decided from the nearest up; the others are paged from the top down, so
// each shares the blocks of the frame above it. It also meters what the
// history costs beyond the one frame a one-reference chain holds: the
// distinct arrays past the nearest and their block indices (the states are
// the caller's, not the store's). mu must be held.
func (s *CompressedStore) gather(step int) history {
	w := &s.win
	fs := w.frames[:0]
	for t := step + 1; t <= step+s.depth; t++ {
		f := s.frameAt(t)
		if f == nil || !f.resident() {
			break
		}
		fs = append(fs, f)
	}
	w.frames = fs
	own := s.frameAt(step)
	if own != nil {
		s.flatten(own, nil)
	}
	if len(fs) == 0 {
		return history{}
	}
	s.flatten(fs[0], own)
	for n := range fs {
		for i := range w.keep[n] {
			v := fs[n].t[i].flat
			w.keep[n][i] = n == 0 || v != nil && (fs[n].lent || w.keep[n-1][i] && sameArray(v, fs[n-1].t[i].flat))
		}
	}
	for n := len(fs) - 1; n >= 1; n-- {
		above := s.frameAt(step + n + 2)
		for i := range fs[n].t {
			if h := &fs[n].t[i]; h.flat != nil && !w.keep[n][i] {
				var nb compress.Blocks
				if above != nil {
					nb = above.t[i].blk
				}
				s.toBlocks(i, h, nb)
			}
		}
	}

	var h history
	extra := int64(0)
	for i := range h.t {
		far := w.far[i][:0]
		for n := 1; n < len(fs); n++ {
			t := fs[n].t[i]
			extra += distinctBytes(t, fs[n-1].t[i])
			b := t.blk
			if b == nil {
				b = compress.View(w.views[i][n-1][:0], t.flat, &w.tails[i][n-1])
				w.views[i][n-1] = b
			}
			far = append(far, b)
		}
		w.far[i] = far
		h.t[i] = compress.History{Near: fs[0].t[i].flat, Far: far}
	}
	s.stats.HistoryBytes = max(s.stats.HistoryBytes, extra)
	h.x = w.x[:0]
	for t := step; t <= step+len(fs); t++ {
		if s.steps[t].x == nil {
			h.x = nil
			break
		}
		h.x = append(h.x, s.steps[t].x)
	}
	return h
}

// distinctBytes is what v costs beside prev, the frame below it: its flat
// array unless it is prev's; its block index and every block not prev's at
// the same place.
func distinctBytes(v, prev held) int64 {
	if v.flat != nil {
		if sameArray(v.flat, prev.flat) {
			return 0
		}
		return int64(8 * len(v.flat))
	}
	n := int64(8 * len(v.blk))
	for b, blk := range v.blk {
		if prev.blk == nil || prev.blk[b] != blk {
			n += 8 * compress.BlockLen
		}
	}
	return n
}

// dead reports whether step's frame is one no decode will read again. The
// sweep stands at at: the next decode, of at−1, reads at…at+depth−1, so
// at+depth and above are dead — and at step 0 everything is. So is a
// recomputed frame no kept step below reads. mu must be held.
func (s *CompressedStore) dead(step int) bool {
	return step >= s.at+s.depth || s.at == 0 || s.unread(step)
}

// trim lets go of the released frames that died when the sweep reached at.
// mu must be held.
func (s *CompressedStore) trim() {
	for t := s.at; t <= s.at+s.depth; t++ {
		if f := s.frameAt(t); f != nil && !f.lent && s.dead(t) {
			s.giveBack(f)
		}
	}
}

// Fetch implements Store. Steps are fetched in descending order from the
// head: each decode reads the plaintext of the steps above it in the window.
// The head, which has no blob, is served from its window frame, checked
// against the sidecars EndForward took. A step the budget dropped is
// recomputed into the window. The returned frames stay valid until Release,
// and the store keeps them past it for as long as a lower step decodes
// against them; they come from the store's pool and return to it.
func (s *CompressedStore) Fetch(step int) (jVals, cVals []float64, err error) {
	s.mu.Lock()
	if err = s.ferr; err == nil && !s.arena.closed && !s.sealed {
		err = &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	}
	mine := s.frameAt(step)
	if err == nil && mine == nil {
		err = closedErr(step)
		if !s.arena.closed {
			err = fmt.Errorf("jactensor: fetch step %d outside [0,%d]", step, len(s.steps)-1)
		}
	}
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	head := step == len(s.steps)-1
	if mine.resident() {
		s.flatten(mine, nil)
		// The head's frame is its only copy, unless the budget dropped it.
		if head && !s.dropped(step) {
			if err = s.checkHead(step, mine.flat()); err != nil {
				// The frame goes unless the sweep holds it, so a refetch
				// fails until Repair installs good plaintext.
				if !mine.lent {
					s.giveBack(mine)
				}
				s.mu.Unlock()
				return nil, nil, err
			}
		}
		s.at = min(s.at, step)
	} else {
		st := s.steps[step]
		var h history
		recompute := s.dropped(step)
		if !recompute {
			if head && !st.quarantined {
				s.mu.Unlock()
				return nil, nil, fmt.Errorf("%w: step %d is the head, which has no blob, and its plaintext is gone", ErrOutOfOrder, step)
			}
			if h = s.gather(step); h.t[0].Near == nil && !head {
				s.mu.Unlock()
				return nil, nil, fmt.Errorf("%w: step %d needs step %d resident", ErrOutOfOrder, step, step+1)
			}
		}
		s.mu.Unlock()
		var out tensors
		if recompute {
			out, err = s.recomputeStep(step)
		} else {
			out, err = s.decodeStep(step, st, h)
		}
		if err != nil {
			return nil, nil, err
		}
		s.mu.Lock()
		*mine, s.at = flatFrame(out), step
	}
	out := mine.flat()
	mine.lent = true
	s.trim()
	s.mu.Unlock()
	s.ob.fetches.Inc()
	return out[0], out[1], nil
}

// Release implements Store: the sweep is done with the step's frame. It goes
// back to the pool once no lower step decodes against it — at once when the
// sweep is already that far down.
func (s *CompressedStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.frameAt(step); f != nil {
		if f.lent = false; s.dead(step) {
			s.giveBack(f)
		}
	}
}

// Repair implements Repairer: recomputed plaintext for a quarantined step
// serves the refetch and — the part that keeps the chain alive — restores the
// decode history of the steps below it; the quarantine is lifted.
func (s *CompressedStore) Repair(step int, jVals, cVals []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.frameAt(step)
	if f == nil {
		return // closed, or no such step
	}
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	s.giveBack(f)
	*f = flatFrame(s.copyFrame(tensors{jVals, cVals}))
	s.bumpResident(s.frameBytes)
	if step == len(s.steps)-1 {
		s.signHead() // the repaired frame is the head's only copy now
	}
	s.heal(s.steps[step])
}

// StoreSlice was a window view of the chain, a second reader for a
// window-local reverse sweep.
//
// Deprecated: the chain has one reader, the store's own; Slice makes none.
type StoreSlice struct{}

// Slice returns an error: the chain has no window views.
//
// Deprecated: sweep the store itself.
func (s *CompressedStore) Slice(lo, hi int) (*StoreSlice, error) {
	return nil, errors.New("jactensor: the chain has no window slices; sweep the store itself")
}

// AnchorSteps returns nil: the chain is never cut.
//
// Deprecated: the chain has no anchors.
func (s *CompressedStore) AnchorSteps() []int { return nil }

// SetAnchorEvery does nothing: the chain is never cut.
//
// Deprecated: the chain has no anchors.
func (s *CompressedStore) SetAnchorEvery(int) {}
