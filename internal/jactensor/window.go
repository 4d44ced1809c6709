package jactensor

import (
	"fmt"

	"masc/internal/compress"
)

// StoreSlice is a window-local view of a CompressedStore: an independent
// reverse-sequential fetcher over the step range [Lo, Hi]. Each slice owns
// forked decoder instances and a private plaintext cache, so W slices can
// run concurrent reverse sweeps over the same blob sequence with no decode
// serialization. The slice's top step must be self-contained — an anchor
// or the head step — which is exactly how the windowed adjoint engine
// picks its boundaries (from AnchorSteps).
//
// Shared parent state (step records, stats, the resident-byte model, the
// frame pool) is touched only under the parent's mutex; the blobs themselves
// are immutable once the forward pass has ended.
type StoreSlice struct {
	p      *CompressedStore
	lo, hi int
	at     int         // the lowest step fetched
	cd     codecs      // forked decoders, private to this slice
	out    []heldFrame // the slice's window, indexed by step-lo
}

// Slice returns a window-local fetcher over steps [lo, hi]. It requires a
// finished forward pass and codecs that support Fork (masczip does; its
// blobs are self-describing, so a fork can decode any of them). hi should
// be an anchor step or the head step n: the slice decodes its top blob
// with no reference when the plaintext is not already retained. A slice may
// outlive the store's Close: its fetches then fail with ErrClosed.
func (s *CompressedStore) Slice(lo, hi int) (*StoreSlice, error) {
	s.mu.Lock()
	done := s.sealedLocked()
	n := len(s.steps) - 1
	s.mu.Unlock()
	if !done {
		return nil, fmt.Errorf("jactensor: Slice before EndForward")
	}
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("jactensor: slice [%d,%d] out of range [0,%d]", lo, hi, n)
	}
	type forker interface{ Fork() compress.Compressor }
	jf, okJ := s.cd.j.(forker)
	cf, okC := s.cd.c.(forker)
	if !okJ || !okC {
		return nil, fmt.Errorf("jactensor: codec %s does not support forked decoders", s.cd.j.Name())
	}
	return &StoreSlice{p: s, lo: lo, hi: hi, at: hi,
		cd: newCodecs(jf.Fork(), cf.Fork()), out: make([]heldFrame, hi-lo+1)}, nil
}

// held implements frames over the slice's private window.
func (sl *StoreSlice) held(step int) *heldFrame {
	if step < sl.lo || step > sl.hi {
		return nil
	}
	return &sl.out[step-sl.lo]
}

// Fetch implements the adjoint package's JacobianSource. Steps must be
// fetched in descending order from Hi: each decode reads the slice-local
// plaintext of the steps above it, except self-contained steps (the slice
// top, anchors) which decode with no reference. A step whose plaintext the
// parent holds — the head frame, a repair, a verified anchor — is copied
// instead. Frames come from the parent's pool and return to it once released
// and out of every lower step's history.
func (sl *StoreSlice) Fetch(step int) ([]float64, []float64, error) {
	if step < sl.lo || step > sl.hi {
		return nil, nil, fmt.Errorf("jactensor: slice fetch step %d outside [%d,%d]", step, sl.lo, sl.hi)
	}
	p, mine := sl.p, &sl.out[step-sl.lo]
	p.mu.Lock()
	if mine.out.j != nil {
		sl.at = min(sl.at, step)
	} else {
		if p.arena.closed {
			p.mu.Unlock()
			return nil, nil, closedErr(step)
		}
		st := p.steps[step]
		src := st.out
		if src.j == nil {
			src = p.anchorLocked(st)
		}
		var out pair
		var h history
		if src.j != nil {
			out = p.copyFrame(src)
			p.bumpResident(p.frameBytes)
		} else if h = p.gather(&sl.cd, sl, step); len(h.j) == 0 && step != sl.hi && !st.pinned {
			p.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: slice step %d needs step %d resident", ErrOutOfOrder, step, step+1)
		}
		p.mu.Unlock()
		if out.j == nil {
			var err error
			if out, err = p.decodeStep(&sl.cd, step, st, h, false); err != nil {
				return nil, nil, err
			}
		}
		p.mu.Lock()
		mine.out, sl.at = out, step
	}
	out := mine.out
	mine.released = false
	p.trim(&sl.cd, sl, sl.at, sl.lo)
	p.mu.Unlock()
	p.ob.fetches.Inc()
	return out.j, out.c, nil
}

// Release implements JacobianSource: it lets go of the slice-local frame only,
// once no lower step of the slice decodes against it; anchor frames and the
// parent's own frames are untouched, so the same store can be sliced and swept
// again.
func (sl *StoreSlice) Release(step int) {
	if step < sl.lo || step > sl.hi {
		return
	}
	sl.p.mu.Lock()
	sl.p.retire(&sl.cd, &sl.out[step-sl.lo], step, sl.at, sl.lo)
	sl.p.mu.Unlock()
}

// Repair implements Repairer: recomputed plaintext heals the step for this
// slice (serving the refetch and restoring the history of the steps below)
// and lifts the parent's quarantine so the accounting matches the serial
// engine's.
func (sl *StoreSlice) Repair(step int, jVals, cVals []float64) {
	if step < sl.lo || step > sl.hi {
		return
	}
	p := sl.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.giveBack(&sl.out[step-sl.lo].out)
	sl.out[step-sl.lo] = heldFrame{out: p.copyFrame(pair{jVals, cVals})}
	p.bumpResident(p.frameBytes)
	if step < len(p.steps) {
		p.heal(p.steps[step])
	}
}
