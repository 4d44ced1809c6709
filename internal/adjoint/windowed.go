package adjoint

// Parallel-in-time windowed reverse sweeps. The trajectory [0, n] is cut
// into W windows at ascending "top" boundaries t_0 < t_1 < … < t_{W-1} = n
// (window j owns steps [t_{j-1}+1, t_j]; window 0 owns [0, t_0]) and the W
// window-local reverse sweeps run concurrently.
//
// The adjoint recurrence is sequential in time, so windows below the top
// cannot start cold: a *seeding sweep* descends from n performing only the
// fetch + factorize + solve chain (no parameter-gradient accumulation below
// its own window) and, as it crosses each boundary, hands the window a seed
// — deep copies of λ_{t_j+1} and the pend carries, plus a clone of the LU
// factorization state — which is exactly the serial sweep's state at that
// point. The seeding sweep doubles as the topmost window (it accumulates
// parameter gradients for steps above t_{W-2}), so its fetch/factor/solve
// work is never duplicated there.
//
// Bit identity for every W (the tentpole contract) rests on three pillars:
//
//  1. Seeds are bit-exact serial state: the seeding sweep executes the
//     identical per-step operation sequence the serial engine would, and
//     lu.Clone copies the numeric factorization state verbatim, so each
//     window's first Refactor sees exactly what the serial sweep's would.
//  2. Parameter-gradient contributions are parked per (step, objective,
//     parameter) in flat buffers and folded into DOdp afterwards in global
//     descending-step order — the serial accumulation sequence. (Summing
//     per window and merging would reorder float additions.)
//  3. Each window fetches through its own view of the store — a StoreSlice
//     with forked decoders for anchored compressed stores, a copy-on-fetch
//     sharedSource for random-access sources — so concurrent sweeps decode
//     the same bytes the serial sweep would, independently.
//
// Degraded runs stay bit-identical too: recomputation is a pure function of
// the trajectory, and the ladder heals each corrupt step with the same
// plaintext regardless of which sweep hits it first.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"masc/internal/circuit"
	"masc/internal/jactensor"
	"masc/internal/lu"
	"masc/internal/obs/span"
	"masc/internal/transient"
)

// windowSeed is the adjoint state a window sweep starts from: the state the
// serial sweep would have after processing step t_j+1, captured by the
// seeding sweep as it crosses the boundary.
type windowSeed struct {
	lamNext [][]float64 // λ_{t_j+1} per objective
	pendQ   [][]float64
	pendF   [][]float64
	fact    *lu.LU // factorization state entering step t_j
}

// captureSeed deep-copies the sweep's boundary state. Must run between
// processStep calls (the windowed engine calls it from afterStep).
func captureSeed(s *sweep) *windowSeed {
	seed := &windowSeed{
		lamNext: make([][]float64, len(s.objs)),
		pendQ:   make([][]float64, len(s.objs)),
		pendF:   make([][]float64, len(s.objs)),
	}
	for o := range s.objs {
		seed.lamNext[o] = append([]float64(nil), s.lamNext[o]...)
		seed.pendQ[o] = append([]float64(nil), s.pendQ[o]...)
		if s.trap {
			seed.pendF[o] = append([]float64(nil), s.pendF[o]...)
		}
	}
	if s.fact != nil {
		seed.fact = s.fact.Clone()
	}
	return seed
}

// applySeed installs a boundary seed into a freshly constructed sweep.
func (s *sweep) applySeed(seed *windowSeed) {
	s.seed = seed
	for o := range s.objs {
		copy(s.lamNext[o], seed.lamNext[o])
		copy(s.pendQ[o], seed.pendQ[o])
		if s.trap {
			copy(s.pendF[o], seed.pendF[o])
		}
	}
	s.fact = seed.fact
}

// sliceableSource is a JacobianSource that supports independent concurrent
// window views: anchored jactensor.CompressedStores. AnchorSteps doubles as
// the boundary menu — every anchor is a self-contained restart point of the
// compressed prediction chain.
type sliceableSource interface {
	AnchorSteps() []int
	Slice(lo, hi int) (*jactensor.StoreSlice, error)
}

// anchoredSource is a random-access source that nonetheless publishes
// preferred window boundaries: the tiered store pins its anchor steps
// against the drop-and-recompute rung, so cutting windows at those anchors
// keeps every window's first fetch off the recompute path. It needs no
// Slice views — window sweeps share it through sharedSource.
type anchoredSource interface{ AnchorSteps() []int }

// anchorTops selects ascending window tops from an anchor menu (the last
// entry is the head step n): all of them when there are at most W-1, evenly
// spaced picks otherwise.
func anchorTops(anchors []int, n, W int) []int {
	// Keep only strictly-increasing interior anchors in (0, n): an anchor
	// menu that repeats the head (or lists it among the interior entries)
	// would otherwise yield duplicate tops — degenerate empty windows whose
	// param contributions are silently skipped.
	interior := make([]int, 0, len(anchors))
	for _, a := range anchors[:len(anchors)-1] {
		if a > 0 && a < n && (len(interior) == 0 || a > interior[len(interior)-1]) {
			interior = append(interior, a)
		}
	}
	tops := make([]int, 0, W)
	if len(interior) <= W-1 {
		tops = append(tops, interior...)
	} else {
		// Evenly spaced picks; strictly increasing because
		// len(interior) >= W.
		for k := 0; k < W-1; k++ {
			tops = append(tops, interior[(k+1)*len(interior)/W])
		}
	}
	tops = append(tops, n)
	if len(tops) < 2 {
		return nil
	}
	return tops
}

// windowBoundaries picks the ascending window tops for a W-way split of
// [0, n]; the last top is always n. Anchored compressed stores constrain
// boundaries to their anchor steps (a window top must be self-contained to
// decode without the upper window's chain); random-access sources split
// arithmetically. Returns nil when no usable split exists — the caller
// falls back to the serial engine.
func windowBoundaries(src JacobianSource, n, W int) []int {
	if W > n+1 {
		W = n + 1 // at most one step per window
	}
	if W < 2 {
		return nil
	}
	if as, ok := src.(sliceableSource); ok {
		anchors := as.AnchorSteps()
		if len(anchors) == 0 {
			return nil // forward pass not finished — cannot window
		}
		return anchorTops(anchors, n, W)
	}
	if as, ok := src.(anchoredSource); ok {
		if anchors := as.AnchorSteps(); len(anchors) > 0 {
			return anchorTops(anchors, n, W)
		}
		// No anchors requested: the source is random-access, so the
		// arithmetic split below is fine.
	}
	tops := make([]int, 0, W)
	for j := 1; j <= W; j++ {
		t := j*(n+1)/W - 1
		if len(tops) == 0 || t > tops[len(tops)-1] {
			tops = append(tops, t)
		}
	}
	if len(tops) < 2 {
		return nil
	}
	return tops
}

// sharedSource adapts a random-access JacobianSource (MemStore, DiskStore,
// RecomputeSource) for concurrent window sweeps: every Fetch is serialized
// under one mutex and copied into an owned buffer on first access (sources
// may alias internal scratch, and MemStore frees on Release), after which
// the base step is released immediately. Per-step refcounts — one per sweep
// that will fetch the step — free the copy on the last Release, keeping the
// resident footprint at the serial sweep's level plus the in-flight window
// frontier.
type sharedSource struct {
	base JacobianSource
	mu   sync.Mutex
	refs []int
	js   [][]float64
	cs   [][]float64
}

// newSharedSource sizes the refcounts for the windowed fetch plan over the
// given tops: the seeding sweep covers (t_0, n], window j covers its own
// range, so steps in (t_0, t_{W-2}] are fetched twice and the rest once.
func newSharedSource(base JacobianSource, tops []int) *sharedSource {
	n := tops[len(tops)-1]
	t0 := tops[0]
	tPen := tops[len(tops)-2]
	ss := &sharedSource{
		base: base,
		refs: make([]int, n+1),
		js:   make([][]float64, n+1),
		cs:   make([][]float64, n+1),
	}
	for i := 0; i <= n; i++ {
		if i > t0 && i <= tPen {
			ss.refs[i] = 2
		} else {
			ss.refs[i] = 1
		}
	}
	return ss
}

func (ss *sharedSource) Fetch(i int) ([]float64, []float64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.js[i] != nil {
		return ss.js[i], ss.cs[i], nil
	}
	jv, cv, err := ss.base.Fetch(i)
	if err != nil {
		return nil, nil, err // not cached: the ladder may heal and refetch
	}
	ss.js[i] = append([]float64(nil), jv...)
	ss.cs[i] = append([]float64(nil), cv...)
	ss.base.Release(i)
	return ss.js[i], ss.cs[i], nil
}

func (ss *sharedSource) Release(i int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if i < 0 || i >= len(ss.refs) {
		return
	}
	ss.refs[i]--
	if ss.refs[i] <= 0 {
		ss.js[i], ss.cs[i] = nil, nil
	}
}

// Repair forwards healed plaintext to the base store so the degradation
// accounting matches the serial engine's. (The failed step was never
// cached, so there is nothing to invalidate here.)
func (ss *sharedSource) Repair(i int, jVals, cVals []float64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if rp, ok := ss.base.(jactensor.Repairer); ok {
		rp.Repair(i, jVals, cVals)
	}
}

// runWindowed executes the windowed reverse sweep. handled reports whether
// the windowed engine ran at all; (nil, false, nil) means no usable
// boundaries and the caller should fall back to the serial path.
func runWindowed(ckt *circuit.Circuit, tr *transient.Result, src JacobianSource, objs []Objective, params []int, trap bool, opt Options) (res *Result, handled bool, err error) {
	n := tr.Steps()
	tops := windowBoundaries(src, n, opt.Windows)
	if len(tops) < 2 {
		return nil, false, nil
	}
	W := len(tops)

	// Per-window store views. views[j] belongs to window j; the last is the
	// seeding sweep's, spanning everything above window 0.
	views := make([]JacobianSource, 0, W)
	if sl, ok := src.(sliceableSource); ok {
		lo := 0
		for j := 0; j < W-1; j++ {
			v, serr := sl.Slice(lo, tops[j])
			if serr != nil {
				return nil, false, nil
			}
			views = append(views, v)
			lo = tops[j] + 1
		}
		sv, serr := sl.Slice(tops[0]+1, n)
		if serr != nil {
			return nil, false, nil
		}
		views = append(views, sv)
	} else {
		ss := newSharedSource(src, tops)
		for j := 0; j < W; j++ {
			views = append(views, ss)
		}
	}

	// One flat contribution row per step: fold order, not compute order,
	// determines the float accumulation sequence.
	K, P := len(objs), len(params)
	contribs := make([][]float64, n+1)
	for i := range contribs {
		contribs[i] = make([]float64, K*P)
	}

	// Ownership ranges: window j < W-1 owns [lows[j], tops[j]]; the seeding
	// sweep owns (t_{W-2}, n].
	windowAt := make(map[int]int, W-1) // step t_j+1 -> window index j
	lows := make([]int, W-1)
	for j := 0; j < W-1; j++ {
		if j > 0 {
			lows[j] = tops[j-1] + 1
		}
		windowAt[tops[j]+1] = j
	}

	// Journaled progress replay: a completed window's rows are copied into
	// the contribution buffers and its sweep skipped. Geometry must match
	// the freshly computed boundaries exactly — anything stale is dropped
	// wholesale, degrading to a full re-sweep, never to a wrong fold.
	completed := map[int]*WindowProgress{}
	if len(opt.Completed) > 0 {
		valid := true
	validate:
		for j, wp := range opt.Completed {
			var lo, hi int
			switch {
			case j >= 0 && j < W-1:
				lo, hi = lows[j], tops[j]
			case j == W-1:
				lo, hi = tops[W-2]+1, n
			default:
				valid = false
				break validate
			}
			if wp == nil || wp.Lo != lo || wp.Hi != hi || len(wp.Rows) != hi-lo+1 {
				valid = false
				break validate
			}
			for _, row := range wp.Rows {
				if len(row) != K*P {
					valid = false
					break validate
				}
			}
		}
		if valid {
			completed = opt.Completed
		}
	}

	tWall := time.Now()
	// Every sweep of this pass polls one context: the caller's, plus the
	// teardown a failing sibling triggers (cause errSweepStopped).
	ctx, abort := context.WithCancelCause(opt.Ctx)
	defer abort(nil)
	opt.Ctx = ctx

	var mu sync.Mutex
	var firstErr error
	var degraded []int
	var timing Timing
	var factored, refactored, reused, fill int
	sweepSec := make([]float64, W)

	for _, wp := range completed {
		for i, row := range wp.Rows {
			copy(contribs[wp.Lo+i], row)
		}
		degraded = append(degraded, wp.Degraded...)
	}

	finish := func(j int, ws *sweep, wall time.Duration, werr error) {
		mu.Lock()
		if _, done := completed[j]; !done && werr == nil && opt.WindowDone != nil {
			// Inside the engine lock: hooks observe windows one at a time,
			// in completion order. The owned range excludes the seeding
			// sweep's param-free descent below t_{W-2}.
			lo := max(ws.loStep, ws.skipParamsAtOrBelow+1)
			if herr := opt.WindowDone(j, lo, ws.hiStep, contribs[lo:ws.hiStep+1], ws.res.DegradedSteps); herr != nil {
				werr = fmt.Errorf("adjoint: window %d completion hook: %w", j, herr)
			}
		}
		sweepSec[j] = wall.Seconds()
		degraded = append(degraded, ws.res.DegradedSteps...)
		timing.Fetch += ws.res.Timing.Fetch
		timing.FactorSolve += ws.res.Timing.FactorSolve
		timing.ParamEval += ws.res.Timing.ParamEval
		factored += ws.res.Factorizations
		refactored += ws.res.Refactorizations
		reused += ws.res.FactorReuses
		fill = max(fill, ws.res.FillNNZ)
		if werr != nil && firstErr == nil && !errors.Is(werr, errSweepStopped) {
			firstErr = werr
		}
		mu.Unlock()
		if werr != nil {
			abort(errSweepStopped)
		}
	}

	if len(completed) < W {
		rec := opt.Obs.SpanRecorder()
		var wg sync.WaitGroup
		launch := func(j, lo, hi int, view JacobianSource, seed *windowSeed) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wsp := rec.Start(opt.SpanParent, span.Window, -1)
				wsp.Attr("win", int64(j))
				wsp.Attr("lo", int64(lo))
				wsp.Attr("hi", int64(hi))
				defer wsp.End()
				ws := newSweep(ckt, tr, view, objs, params, trap, opt)
				defer ws.pool.close()
				ws.spanParent = wsp.ID()
				ws.hiStep, ws.loStep = hi, lo
				ws.stepContrib = contribs[lo : hi+1]
				ws.applySeed(seed)
				t := time.Now()
				werr := ws.run()
				finish(j, ws, time.Since(t), werr)
			}()
		}

		// The seeding sweep runs on the calling goroutine: full engine above
		// t_{W-2} (it IS the topmost window), seed generation below. A
		// journaled-complete seeder still descends — seeds are LU state,
		// which the journal cannot hold — but accumulates nothing.
		ssp := rec.Start(opt.SpanParent, span.Window, -1)
		ssp.Attr("win", int64(W-1))
		ssp.Attr("lo", int64(tops[0]+1))
		ssp.Attr("hi", int64(n))
		ssp.Attr("seeder", 1)
		seeder := newSweep(ckt, tr, views[W-1], objs, params, trap, opt)
		defer seeder.pool.close()
		seeder.spanParent = ssp.ID()
		seeder.hiStep, seeder.loStep = n, tops[0]+1
		seeder.skipParamsAtOrBelow = tops[W-2]
		if _, done := completed[W-1]; done {
			seeder.skipParamsAtOrBelow = n
		}
		seeder.stepContrib = contribs[tops[0]+1:]
		seeder.afterStep = func(i int) {
			j, ok := windowAt[i]
			if !ok || seeder.checkStop() != nil {
				return
			}
			if _, done := completed[j]; done {
				return
			}
			launch(j, lows[j], tops[j], views[j], captureSeed(seeder))
		}
		tSeed := time.Now()
		serr := seeder.run()
		finish(W-1, seeder, time.Since(tSeed), serr)
		ssp.End()
		wg.Wait()
	}

	if firstErr != nil {
		return nil, true, firstErr
	}

	res = &Result{
		DOdp:           make([][]float64, K),
		Params:         params,
		Timing:         timing,
		Windows:        W,
		WindowSweepSec: sweepSec,

		Factorizations:   factored,
		Refactorizations: refactored,
		FactorReuses:     reused,
		FillNNZ:          fill,
	}
	// Fold: the global descending-step replay of the serial accumulation.
	for o := 0; o < K; o++ {
		res.DOdp[o] = make([]float64, P)
	}
	for i := n; i >= 0; i-- {
		row := contribs[i]
		for o := 0; o < K; o++ {
			base := o * P
			dst := res.DOdp[o]
			for pk := 0; pk < P; pk++ {
				dst[pk] -= row[base+pk]
			}
		}
	}
	// Degraded steps: windows may observe the same corrupt step the seeding
	// sweep already healed (slice caches are private) — dedupe to the
	// serial sweep's descending-order list.
	if len(degraded) > 0 {
		sort.Sort(sort.Reverse(sort.IntSlice(degraded)))
		dd := degraded[:0]
		for _, st := range degraded {
			if len(dd) == 0 || dd[len(dd)-1] != st {
				dd = append(dd, st)
			}
		}
		res.DegradedSteps = dd
	}
	res.Timing.Total = time.Since(tWall)
	so := newSweepObs(opt.Obs)
	if so.on {
		so.windows.Set(float64(W))
		for _, sec := range sweepSec {
			so.winSweep.Observe(sec)
		}
	}
	return res, true, nil
}
