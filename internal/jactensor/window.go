package jactensor

import (
	"fmt"

	"masc/internal/compress"
	"masc/internal/obs/span"
)

// StoreSlice is the chain's one reverse reader — Algorithm 2's reverse step:
// fetch step i by decoding it against the already-materialized steps above
// it, release step i+1 once nothing below reads it — over the step range
// [lo, hi]. The store's own sweep is its reader over [0, n], whose window is
// the step records' frames (so the head frame EndForward keeps — the head's
// only copy, for it has no blob — is read in place) and whose codecs are the
// store's. A window slice (Slice) is the same reader with forked decoders and
// a private window, so W slices can run concurrent reverse sweeps over the
// same blob sequence with no decode serialization. A slice's top step must be
// self-contained — an anchor, or the head step while its plaintext is
// retained: the steps AnchorSteps lists. The facade's reverse sweep reads
// through the store's own reader and sets no anchors; slices serve callers
// that cut the trajectory themselves.
//
// Shared parent state (step records, stats, the resident-byte model, the
// frame pool) is touched only under the parent's mutex; the blobs themselves
// are immutable once the forward pass has ended.
type StoreSlice struct {
	p      *CompressedStore
	cd     *codecs // the store's codecs, or forked decoders private to a slice
	lo, hi int
	at     int         // the lowest step fetched
	out    []heldFrame // a slice's window, indexed by step-lo; nil = the step records'
}

// Slice returns a window-local fetcher over steps [lo, hi]. It requires a
// finished forward pass and codecs that support Fork (masczip does; its
// blobs are self-describing, so a fork can decode any of them). hi should
// be an anchor step or the head step n: the slice copies a retained anchor
// frame or decodes the anchor's self-contained blob; the head has no blob, so
// it serves a slice only while the store retains its plaintext — once the
// store's own sweep has let it go, fetching it fails with ErrOutOfOrder. A
// slice may outlive the store's Close: its fetches then fail with ErrClosed,
// and its releases and repairs do nothing.
func (s *CompressedStore) Slice(lo, hi int) (*StoreSlice, error) {
	s.mu.Lock()
	done := s.sealed
	n := len(s.steps) - 1
	s.mu.Unlock()
	if !done {
		return nil, fmt.Errorf("jactensor: Slice before EndForward")
	}
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("jactensor: slice [%d,%d] out of range [0,%d]", lo, hi, n)
	}
	type forker interface{ Fork() compress.Compressor }
	var forks [nTensors]compress.Compressor
	for i, c := range s.cd.c {
		f, ok := c.(forker)
		if !ok {
			return nil, fmt.Errorf("jactensor: codec %s does not support forked decoders", c.Name())
		}
		forks[i] = f.Fork()
	}
	cd := newCodecs(forks)
	return &StoreSlice{p: s, cd: &cd, lo: lo, hi: hi, at: hi, out: make([]heldFrame, hi-lo+1)}, nil
}

// held is step's frame in the reader's window: nil outside [lo, hi], and for
// every step once the store's Close has dropped the records. mu must be held.
func (sl *StoreSlice) held(step int) *heldFrame {
	switch {
	case step < sl.lo || step > sl.hi || step >= len(sl.p.steps):
		return nil
	case sl.out == nil:
		return &sl.p.steps[step].heldFrame
	}
	return &sl.out[step-sl.lo]
}

// gather collects, nearest first, the frames of the reader's window that
// step's blob is — or was — sealed against: up to cd.depth resident ones above
// it, none past the nearest anchor (an anchor itself has none), so a window
// slice that starts at that anchor sees the history the forward pass did; and
// the states of step and of those frames' steps, when every one of them has
// one. It places the window as the codec reads it (held): step's own frame,
// when resident, and the nearest are flat; a frame past the nearest is paged
// to blocks unless the sweep still holds it or it holds the flat array of the
// frame below, which stays flat — a frame at no cost. Which stay flat is
// decided from the nearest up; the others are paged from the top down, so
// each shares the blocks of the frame above it. It also meters what the
// history costs beyond the one frame a one-reference chain holds: the
// distinct arrays past the nearest and their block indices (the states are
// the caller's, not the store's). mu must be held.
func (sl *StoreSlice) gather(step int) history {
	p, w := sl.p, &sl.cd.win
	fs := w.frames[:0]
	for t := step + 1; t <= step+sl.cd.depth && !p.steps[t-1].pinned; t++ {
		f := sl.held(t)
		if f == nil || !f.resident() {
			break
		}
		fs = append(fs, f)
	}
	w.frames = fs
	own := sl.held(step)
	if own != nil {
		p.flatten(own, nil)
	}
	if len(fs) == 0 {
		return history{}
	}
	p.flatten(fs[0], own)
	for n := range fs {
		for i := range w.keep[n] {
			v := fs[n].t[i].flat
			w.keep[n][i] = n == 0 || v != nil && (fs[n].lent || w.keep[n-1][i] && sameArray(v, fs[n-1].t[i].flat))
		}
	}
	for n := len(fs) - 1; n >= 1; n-- {
		above := sl.held(step + n + 2)
		for i := range fs[n].t {
			if h := &fs[n].t[i]; h.flat != nil && !w.keep[n][i] {
				var nb compress.Blocks
				if above != nil {
					nb = above.t[i].blk
				}
				p.toBlocks(i, h, nb)
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
	p.stats.HistoryBytes = max(p.stats.HistoryBytes, extra)
	h.x = w.x[:0]
	for t := step; t <= step+len(fs); t++ {
		if p.steps[t].x == nil {
			h.x = nil
			break
		}
		h.x = append(h.x, p.steps[t].x)
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
// at+depth and above are dead — and at lo everything is. So is a recomputed
// frame no kept step below reads. mu must be held.
func (sl *StoreSlice) dead(step int) bool {
	return step >= sl.at+sl.cd.depth || sl.at == sl.lo || sl.p.unread(step)
}

// trim lets go of the released frames that died when the sweep reached at.
// mu must be held.
func (sl *StoreSlice) trim() {
	for t := sl.at; t <= sl.at+sl.cd.depth; t++ {
		if f := sl.held(t); f != nil && !f.lent && sl.dead(t) {
			sl.p.giveBack(f)
		}
	}
}

// Fetch implements the adjoint package's JacobianSource. Steps must be
// fetched in descending order from hi: each decode reads the plaintext of the
// steps above it in the reader's window, except anchors, which decode with no
// reference. A step whose plaintext the store holds outside the window — a
// verified anchor, or for a slice the head frame or a repair of the store's
// own sweep — is copied instead; the head, which has no blob, is served only
// so, and its frame is checked against the sidecars EndForward took. A step
// the budget dropped is recomputed into the window. The
// returned frames stay valid until Release, and the reader keeps them past it
// for as long as a lower step decodes against them; they come from the store's
// pool and return to it.
func (sl *StoreSlice) Fetch(step int) ([]float64, []float64, error) {
	out, _, err := sl.fetch(step)
	return out[0], out[1], err
}

// fetch is Fetch, also reporting whether the step was decoded.
func (sl *StoreSlice) fetch(step int) (out tensors, decoded bool, err error) {
	p := sl.p
	p.mu.Lock()
	mine := sl.held(step)
	if mine == nil {
		err = closedErr(step)
		if !p.arena.closed {
			err = fmt.Errorf("jactensor: fetch step %d outside [%d,%d]", step, sl.lo, sl.hi)
		}
		p.mu.Unlock()
		return tensors{}, false, err
	}
	head := step == len(p.steps)-1
	if mine.resident() {
		p.flatten(mine, nil)
		// The own reader's head frame is the head's only copy, unless the
		// budget dropped it; a slice's frames are its own copies, checked
		// when they were made.
		if sl.out == nil && head && !p.dropped(step) {
			if err = p.checkHead(step, mine.flat()); err != nil {
				// The frame goes unless the sweep holds it, so a refetch
				// fails until Repair installs good plaintext.
				if !mine.lent {
					p.giveBack(mine)
				}
				p.mu.Unlock()
				return tensors{}, false, err
			}
		}
		sl.at = min(sl.at, step)
	} else {
		st := p.steps[step]
		var h history
		recompute := false
		if st.resident() {
			for i := range out {
				out[i] = p.flatOf(i, st.t[i])
			}
			if head && !p.dropped(step) {
				if err = p.checkHead(step, out); err != nil {
					p.parkFrame(out)
					p.bumpResident(-p.frameBytes)
					p.mu.Unlock()
					return tensors{}, false, err
				}
			}
		} else if src, ok := p.anchorLocked(st); ok {
			out = p.copyFrame(src)
			p.bumpResident(p.frameBytes)
		} else if recompute = p.dropped(step); !recompute {
			if head && !st.quarantined {
				p.mu.Unlock()
				return tensors{}, false, fmt.Errorf("%w: step %d is the head, which has no blob, and its plaintext is gone", ErrOutOfOrder, step)
			}
			if h = sl.gather(step); h.t[0].Near == nil && step != sl.hi && !st.pinned {
				p.mu.Unlock()
				return tensors{}, false, fmt.Errorf("%w: step %d needs step %d resident", ErrOutOfOrder, step, step+1)
			}
		}
		p.mu.Unlock()
		switch decoded = out[0] == nil; {
		case recompute:
			out, err = p.recomputeStep(step)
		case decoded:
			out, err = p.decodeStep(sl.cd, step, st, h, false)
		}
		if err != nil {
			return tensors{}, false, err
		}
		p.mu.Lock()
		*mine, sl.at = flatFrame(out), step
	}
	out = mine.flat()
	mine.lent = true
	sl.trim()
	p.mu.Unlock()
	p.ob.fetches.Inc()
	return out, decoded, nil
}

// Release implements JacobianSource: the sweep is done with the step's frame.
// It goes back to the pool once no lower step decodes against it — at once
// when the sweep is already that far down. An anchor's retained frame stays,
// so the same store can be swept or sliced again.
func (sl *StoreSlice) Release(step int) {
	sl.p.mu.Lock()
	defer sl.p.mu.Unlock()
	if f := sl.held(step); f != nil {
		if f.lent = false; sl.dead(step) {
			sl.p.giveBack(f)
		}
	}
}

// Repair implements Repairer: recomputed plaintext for a quarantined step
// serves the refetch and — the part that keeps the chain alive — restores the
// decode history of the steps below it; the store's quarantine is lifted, so a
// slice's accounting matches the serial sweep's.
func (sl *StoreSlice) Repair(step int, jVals, cVals []float64) {
	p := sl.p
	p.mu.Lock()
	defer p.mu.Unlock()
	f := sl.held(step)
	if f == nil {
		return // closed, or outside the reader's range
	}
	rsp := p.ob.rec.Start(p.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	p.giveBack(f)
	*f = flatFrame(p.copyFrame(tensors{jVals, cVals}))
	p.bumpResident(p.frameBytes)
	if sl.out == nil && step == len(p.steps)-1 {
		p.signHead() // the repaired frame is the head's only copy now
	}
	p.heal(p.steps[step])
}
