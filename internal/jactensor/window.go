package jactensor

import (
	"fmt"
	"time"

	"masc/internal/compress"
	"masc/internal/obs/span"
)

// StoreSlice is a window-local view of a CompressedStore: an independent
// reverse-sequential fetcher over the step range [Lo, Hi]. Each slice owns
// forked decoder instances and a private plaintext cache, so W slices can
// run concurrent reverse sweeps over the same blob sequence with no decode
// serialization. The slice's top step must be self-contained — an anchor
// or the head step — which is exactly how the windowed adjoint engine
// picks its boundaries (from AnchorSteps).
//
// Shared parent state (blob quarantine, stats, the resident-byte model,
// anchor frames) is touched only under the parent's mutex; the blobs
// themselves are immutable once the forward pass has ended.
type StoreSlice struct {
	p      *CompressedStore
	lo, hi int
	jc, cc compress.Compressor // forked decoders, private to this slice

	plainJ, plainC map[int][]float64
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
	n := s.n
	s.mu.Unlock()
	if !done {
		return nil, fmt.Errorf("jactensor: Slice before EndForward")
	}
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("jactensor: slice [%d,%d] out of range [0,%d]", lo, hi, n)
	}
	type forker interface{ Fork() compress.Compressor }
	jf, okJ := s.jc.(forker)
	cf, okC := s.cc.(forker)
	if !okJ || !okC {
		return nil, fmt.Errorf("jactensor: codec %s does not support forked decoders", s.jc.Name())
	}
	return &StoreSlice{
		p: s, lo: lo, hi: hi,
		jc: jf.Fork(), cc: cf.Fork(),
		plainJ: map[int][]float64{},
		plainC: map[int][]float64{},
	}, nil
}

// sharedPlainLocked looks step up in the parent's shared plaintext
// sources: the reverse-sweep cache (which holds the retained head frame
// and any repairs) first, then the anchor frames (CRC-verified). mu must
// be held. The returned slices are the parent's own — callers copy.
func (s *CompressedStore) sharedPlainLocked(step int) (jv, cv []float64, ok bool) {
	if j, hit := s.plainJ[step]; hit {
		return j, s.plainC[step], true
	}
	return s.anchorPlainLocked(step)
}

// Fetch implements the adjoint package's JacobianSource. Steps must be
// fetched in descending order from Hi: each decode references the
// slice-local plaintext of step+1, except self-contained steps (the slice
// top, anchors) which decode with no reference. Frames come from the
// parent's pool and return to it on Release.
func (sl *StoreSlice) Fetch(step int) ([]float64, []float64, error) {
	if step < sl.lo || step > sl.hi {
		return nil, nil, fmt.Errorf("jactensor: slice fetch step %d outside [%d,%d]", step, sl.lo, sl.hi)
	}
	if j, ok := sl.plainJ[step]; ok {
		sl.p.ob.fetches.Inc()
		return j, sl.plainC[step], nil
	}
	p := sl.p
	selfContained := step == sl.hi || p.isAnchorStep(step)

	p.mu.Lock()
	if p.arena.closed {
		p.mu.Unlock()
		return nil, nil, closedErr(step)
	}
	if aj, ac, ok := p.sharedPlainLocked(step); ok {
		jv := copyBuf(&p.poolJ, aj)
		cv := copyBuf(&p.poolC, ac)
		p.bumpResident(int64(8 * (len(jv) + len(cv))))
		p.mu.Unlock()
		sl.plainJ[step] = jv
		sl.plainC[step] = cv
		p.ob.fetches.Inc()
		return jv, cv, nil
	}
	var refJ, refC []float64
	if !selfContained {
		var ok bool
		refJ, ok = sl.plainJ[step+1]
		if !ok {
			p.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: slice step %d needs step %d resident", ErrOutOfOrder, step, step+1)
		}
		refC = sl.plainC[step+1]
	}
	jBlob, cBlob, jv, cv, err := p.checkoutLocked(step)
	p.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	defer p.unpinBlobs()

	jPayload, err := p.openBlob(jBlob, 'J', step, "J")
	if err != nil {
		return nil, nil, err
	}
	cPayload, err := p.openBlob(cBlob, 'C', step, "C")
	if err != nil {
		return nil, nil, err
	}
	dsp := p.ob.rec.Start(p.ob.spanParent(), span.Decompress, step)
	start := time.Now()
	if err := sl.jc.Decompress(jv, jPayload, refJ); err != nil {
		dsp.End()
		return nil, nil, p.decodeFailed(step, "J", err)
	}
	if err := sl.cc.Decompress(cv, cPayload, refC); err != nil {
		dsp.End()
		return nil, nil, p.decodeFailed(step, "C", err)
	}
	elapsed := time.Since(start)
	dsp.Attr("bytes", int64(len(jBlob)+len(cBlob)))
	dsp.End()
	sl.plainJ[step] = jv
	sl.plainC[step] = cv
	p.mu.Lock()
	p.stats.DecompressTime += elapsed
	p.bumpResident(int64(8 * (len(jv) + len(cv))))
	p.mu.Unlock()
	p.ob.fetches.Inc()
	p.ob.decompressSec.AddDuration(elapsed)
	return jv, cv, nil
}

// Release implements JacobianSource: it recycles only the slice-local copy;
// anchor frames and the parent's shared cache are untouched, so the same
// store can be sliced and swept again.
func (sl *StoreSlice) Release(step int) {
	jv, ok := sl.plainJ[step]
	if !ok {
		return
	}
	cv := sl.plainC[step]
	delete(sl.plainJ, step)
	delete(sl.plainC, step)
	p := sl.p
	p.mu.Lock()
	p.bumpResident(-int64(8 * (len(jv) + len(cv))))
	p.poolJ = append(p.poolJ, jv)
	p.poolC = append(p.poolC, cv)
	p.mu.Unlock()
}

// Repair implements Repairer: recomputed plaintext heals the step for this
// slice (serving the refetch and restoring the downward reference chain)
// and lifts the parent's quarantine so the accounting matches the serial
// engine's.
func (sl *StoreSlice) Repair(step int, jVals, cVals []float64) {
	if step < sl.lo || step > sl.hi {
		return
	}
	p := sl.p
	p.mu.Lock()
	jv := copyBuf(&p.poolJ, jVals)
	cv := copyBuf(&p.poolC, cVals)
	sl.plainJ[step] = jv
	sl.plainC[step] = cv
	delete(p.quarantined, step)
	p.stats.Repairs++
	p.bumpResident(int64(8 * (len(jv) + len(cv))))
	p.mu.Unlock()
}
