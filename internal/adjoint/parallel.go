package adjoint

// The parallel adjoint engine. Three independent levers, all preserving
// bit-identical results for every worker count:
//
//  1. Multi-RHS solves: all K objective systems J_iᵀλ = rhs share one
//     factorization, so lu.SolveTMulti traverses the factor columns once
//     and streams the K right-hand sides through each entry.
//  2. Worker sharding: the per-step parameter-gradient loop (and the
//     per-objective RHS builds feeding the solve) are split into disjoint
//     contiguous shards, one workpool.Do index each, on the process-wide
//     pool the codecs' row chunks run on. Each (objective, param) cell is
//     touched by exactly one shard with exactly the serial operation
//     sequence, and Do's barrier keeps the cross-step accumulation order
//     that of a single worker.
//  3. Fetch/solve overlap: a dedicated fetcher goroutine owns every
//     JacobianSource call and runs one step ahead of the solver, so
//     decompression / disk reads / recomputation hide behind the
//     factor+solve+accumulate of the previous step. So does assembling
//     J_i from a stored (G_i, C_i) pair, which acquire does straight into
//     the fetcher's buffer, and the degradation ladder (quarantine →
//     recompute → repair → refetch), which runs unchanged on the fetcher.
//     Every sweep runs it, for every source at every worker count: the
//     fetcher is the sweep's only read-ahead, and the one goroutine that
//     calls the source.
//
// Determinism notes. Shards are pure functions of (worker count, length),
// each shard writes only its own res.DOdp[o][pk] cells and lam rows, and
// floating-point accumulation never crosses a shard boundary — so results
// are bit-identical for every worker count, including 1. The fetcher copies
// fetched values into private rotating buffers before touching the next
// step, because sources (RecomputeSource in particular) may alias internal
// scratch that the next Fetch overwrites. The assembled J is a pure function
// of the fetched pair and the trajectory (transient.Result.AssembleJ), built
// with the forward pass's operation order, so which goroutine builds it
// changes no bit.

import (
	"errors"
	"fmt"
	"time"

	"masc/internal/circuit"
	"masc/internal/device"
	"masc/internal/lu"
	"masc/internal/obs/span"
	"masc/internal/sparse"
	"masc/internal/transient"
	"masc/internal/workpool"
)

// shard returns the half-open range [lo, hi) of items shard w owns out of
// total, split workers ways. Shards are contiguous, disjoint, and cover
// [0, total); they depend only on (w, workers, total).
func shard(w, workers, total int) (lo, hi int) {
	return w * total / workers, (w + 1) * total / workers
}

// fetchBuf is one slot of the fetch pipeline: a private copy of a step's
// Jacobian tensors plus the fetcher-side bookkeeping for that step.
type fetchBuf struct {
	step     int
	jv, cv   []float64
	degraded bool
	dur      time.Duration // fetcher-side acquisition time (incl. ladder)
}

// sweep is one adjoint reverse sweep in flight.
type sweep struct {
	ckt    *circuit.Circuit
	tr     *transient.Result
	src    JacobianSource
	objs   []Objective
	opt    Options
	params []int
	trap   bool
	n      int // last step of the trajectory; the sweep runs n down to 0

	workers int

	fact *lu.LU
	perm []int32

	lam     [][]float64 // λ_i per objective
	lamNext [][]float64 // λ_{i+1}
	pendQ   [][]float64 // λ_{i+1}/h_{i+1} (dqdp regroup)
	pendF   [][]float64 // ½λ_{i+1} (trapezoidal dfdp regroup)

	evs  []*circuit.Eval // per-shard parameter-sensitivity evaluators
	accs []*device.SensAccum
	tmps [][]float64 // per-shard Jᵀλ scratch (trapezoidal RHS builds)

	rec *RecomputeSource // lazy recompute fallback for degraded steps
	res *Result
	so  sweepObs

	// sweepSpan is the live Sweep span's ID, the parent of the per-step
	// fetch/solve/param spans.
	sweepSpan span.ID
}

func newSweep(ckt *circuit.Circuit, tr *transient.Result, src JacobianSource, objs []Objective, params []int, trap bool, opt Options) *sweep {
	w := opt.Workers
	if w < 1 {
		w = 1
	}
	s := &sweep{
		ckt:     ckt,
		tr:      tr,
		src:     src,
		objs:    objs,
		opt:     opt,
		params:  params,
		trap:    trap,
		n:       tr.Steps(),
		workers: w,
		perm:    ckt.JPerm(),
		so:      newSweepObs(opt.Obs),
	}
	N := ckt.N
	s.lam = make([][]float64, len(objs))
	s.lamNext = make([][]float64, len(objs))
	s.pendQ = make([][]float64, len(objs))
	s.pendF = make([][]float64, len(objs))
	for o := range objs {
		s.lam[o] = make([]float64, N)
		s.lamNext[o] = make([]float64, N)
		s.pendQ[o] = make([]float64, N)
		if trap {
			s.pendF[o] = make([]float64, N)
		}
	}
	s.evs = make([]*circuit.Eval, w)
	s.accs = make([]*device.SensAccum, w)
	s.tmps = make([][]float64, w)
	for i := 0; i < w; i++ {
		s.evs[i] = circuit.NewEval(ckt)
		s.accs[i] = device.NewSensAccum(N)
		s.tmps[i] = make([]float64, N)
	}
	s.res = &Result{
		DOdp:    make([][]float64, len(objs)),
		Params:  params,
		Windows: 1,
	}
	for o := range s.res.DOdp {
		s.res.DOdp[o] = make([]float64, len(params))
	}
	if s.so.on {
		s.so.workers.Set(float64(w))
	}
	return s
}

// acquire materializes step i's J and C values. Under Options.StoredGC the
// source holds (G_i, C_i) and J_i is assembled here, into jDst (JPat-sized),
// so the fetcher builds it off the solver's critical path straight
// into its rotating buffer. The returned slices may alias jDst or source
// internals and are only valid until the next acquire/Release.
func (s *sweep) acquire(i int, jDst []float64) (jv, cv []float64, degraded bool, err error) {
	av, cv, degraded, err := s.acquireStored(i)
	if err != nil {
		return nil, nil, false, err
	}
	first, layout := s.ckt.JPat, "(J, C)"
	if s.opt.StoredGC {
		first, layout = s.ckt.GPat, "(G, C)"
	}
	if len(av) != first.NNZ() || len(cv) != s.ckt.CPat.NNZ() {
		return nil, nil, false, fmt.Errorf("adjoint: step %d: source returned %d and %d values, the %s layout has %d and %d (Options.StoredGC must match what the store was fed)",
			i, len(av), len(cv), layout, first.NNZ(), s.ckt.CPat.NNZ())
	}
	if !s.opt.StoredGC {
		return av, cv, degraded, nil
	}
	s.tr.AssembleJ(s.ckt, i, jDst, av, cv)
	return jDst, cv, degraded, nil
}

// jFrame returns a buffer for acquire to assemble J into, nil when the
// source yields J itself.
func (s *sweep) jFrame() []float64 {
	if !s.opt.StoredGC {
		return nil
	}
	return make([]float64, s.ckt.JPat.NNZ())
}

// degradable is the fetch error of a step the sweep may recover by
// recomputing it (a store's corrupt or unreadable step, as opposed to a
// closed store or a caller's bug).
type degradable interface{ Degradable() bool }

// repairer is the optional source capability the degradation ladder uses
// after recomputing a damaged step: Repair installs known-good plaintext for
// the step, so later fetches (and a compressed chain's decoding of the steps
// below it) come from the repaired values instead of the quarantined blob.
type repairer interface {
	Repair(step int, aVals, cVals []float64)
}

// acquireStored fetches step i's pair in the source's own layout, running
// the degradation ladder on any recoverable fetch failure: recompute the pair
// bit-exactly from the in-memory trajectory, hand the plaintext back to the
// store (healing the quarantined step and the compressed reference chain),
// and prefer the healed store copy.
func (s *sweep) acquireStored(i int) (av, cv []float64, degraded bool, err error) {
	av, cv, err = s.src.Fetch(i)
	if err == nil {
		return av, cv, false, nil
	}
	var de degradable
	if !errors.As(err, &de) || !de.Degradable() {
		return nil, nil, false, fmt.Errorf("adjoint: fetch step %d: %w", i, err)
	}
	if s.rec == nil {
		s.rec = NewRecomputeSource(s.ckt, s.tr)
	}
	recompute := s.rec.Fetch
	if s.opt.StoredGC {
		recompute = s.rec.Pair
	}
	ra, rc, rerr := recompute(i)
	if rerr != nil {
		return nil, nil, false, &DegradeError{Step: i, Fetch: err, Recompute: rerr}
	}
	if rp, ok := s.src.(repairer); ok {
		rp.Repair(i, ra, rc)
		if av2, cv2, ferr := s.src.Fetch(i); ferr == nil {
			ra, rc = av2, cv2
		}
	}
	return ra, rc, true, nil
}

// checkStop polls the caller's context.
func (s *sweep) checkStop() error {
	if err := s.opt.Ctx.Err(); err != nil {
		return fmt.Errorf("adjoint: canceled: %w", err)
	}
	return nil
}

// run drives the sweep from step n down to 0. A fetcher goroutine owns every
// JacobianSource call (Fetch, the degradation ladder, Release) and keeps one
// step of lookahead in two rotating buffers, so acquisition cost hides behind
// the previous step's factor+solve+accumulate. The source sees Fetch(n),
// Fetch(n−1), Release(n), …, Release(0) from one goroutine at a time: step
// i+1 is released only once step i has materialized, mirroring Algorithm 2's
// "decompress M_{n−1} using M_n, then free M_n" — releasing earlier would
// drop the decompression reference chain of a compressed store.
func (s *sweep) run() error {
	swp := s.startSweepSpan()
	defer swp.End()
	t0 := time.Now()
	free := make(chan *fetchBuf, 2)
	results := make(chan *fetchBuf, 2)
	errCh := make(chan error, 1)
	stop := make(chan struct{})
	free <- &fetchBuf{jv: s.jFrame()}
	free <- &fetchBuf{jv: s.jFrame()}

	go func() {
		defer close(results)
		for i := s.n; i >= 0; i-- {
			if s.checkStop() != nil {
				return
			}
			var buf *fetchBuf
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			t := time.Now()
			jv, cv, degraded, err := s.acquire(i, buf.jv)
			if err != nil {
				errCh <- err
				return
			}
			// Copy before the next Fetch/Release: the source may reuse the
			// returned backing arrays (RecomputeSource always does). A J
			// assembled into buf.jv is already in place.
			if !s.opt.StoredGC {
				buf.jv = append(buf.jv[:0], jv...)
			}
			buf.cv = append(buf.cv[:0], cv...)
			if i < s.n {
				s.src.Release(i + 1)
			}
			buf.step = i
			buf.degraded = degraded
			buf.dur = time.Since(t)
			select {
			case results <- buf:
			case <-stop:
				return
			}
		}
		s.src.Release(0)
	}()

	// halt tears the pipeline down on an error: signal the fetcher, then
	// drain until it has closed results, so no goroutine touches the store
	// after run returns. The one exception is the caller's cancellation
	// arriving while the sweep waits on the fetcher (below).
	halt := func() {
		close(stop)
		for range results {
		}
	}

	for i := s.n; i >= 0; i-- {
		if err := s.checkStop(); err != nil {
			halt()
			return err
		}
		tWait := time.Now()
		var buf *fetchBuf
		var ok bool
		select {
		case buf, ok = <-results:
		case <-s.opt.Ctx.Done():
			err := s.checkStop()
			// The caller stopped the run, and the fetcher may be why (a hung
			// read, a dead recompute). Signal it and drain asynchronously —
			// waiting for a stuck read would just move the hang here. Its
			// last Fetch/Release may then race the store's Close, which
			// every store tolerates (see JacobianSource).
			close(stop)
			go func() {
				for range results {
				}
			}()
			return err
		}
		wait := time.Since(tWait)
		if !ok {
			select {
			case err := <-errCh:
				return err
			default:
				if err := s.checkStop(); err != nil {
					return err
				}
				return fmt.Errorf("adjoint: fetch pipeline stopped before step %d", i)
			}
		}
		if buf.step != i {
			halt()
			return fmt.Errorf("adjoint: fetch pipeline delivered step %d, want %d", buf.step, i)
		}
		// Timing.Fetch is the solver-visible blocked wait; the true
		// fetcher-side acquisition time (buf.dur) and the portion hidden
		// behind compute go to the metrics registry.
		s.noteFetch(i, wait, buf.dur, buf.degraded)
		err := s.processStep(i, buf.jv, buf.cv)
		select {
		case free <- buf:
		default: // fetcher already gone; buffer no longer needed
		}
		if err != nil {
			halt()
			return err
		}
	}
	// The fetcher still owes Release(0); wait for it to finish and close
	// results so the store is quiescent when we return.
	if _, ok := <-results; ok {
		return fmt.Errorf("adjoint: fetch pipeline produced an extra step")
	}
	s.res.Timing.Total = time.Since(t0)
	return nil
}

// startSweepSpan opens this sweep's Sweep span (annotated with its step
// range and worker count) and publishes its ID as the parent of the
// per-step fetch/solve/param spans.
func (s *sweep) startSweepSpan() span.Span {
	swp := s.so.rec.Start(s.opt.SpanParent, span.Sweep, -1)
	swp.Attr("lo", 0)
	swp.Attr("hi", int64(s.n))
	swp.Attr("workers", int64(s.workers))
	s.sweepSpan = swp.ID()
	return swp
}

// noteFetch records the acquisition of step i. wait is the time the solver
// blocked on the fetcher, acq the fetcher's acquisition time.
func (s *sweep) noteFetch(i int, wait, acq time.Duration, degraded bool) {
	s.res.Timing.Fetch += wait
	if degraded {
		s.res.DegradedSteps = append(s.res.DegradedSteps, i)
	}
	if rec := s.so.rec; rec != nil {
		// Backdated so the span covers the acquisition interval that just
		// finished (the fetcher-side time, not only the blocked wait).
		t1 := rec.Now()
		fsp := rec.StartAt(s.sweepSpan, span.Fetch, i, t1-int64(acq))
		fsp.Attr("wait_ns", int64(wait))
		fsp.Attr("degraded", boolInt(degraded))
		fsp.EndAt(t1)
	}
	if !s.so.on {
		return
	}
	s.so.fetchSec.AddDuration(acq)
	s.so.waitSec.AddDuration(wait)
	if hidden := acq - wait; hidden > 0 {
		s.so.hiddenSec.AddDuration(hidden)
	}
	if degraded {
		s.so.degraded.Inc()
	}
}

// factorize brings s.fact up to date with one step's Jacobian and counts
// what that took. The first fresh factorization tries Options.Hint's pivot
// order and drops the hint. Runs on the sweep's own goroutine only.
func (s *sweep) factorize(j *sparse.Matrix) (lu.Outcome, error) {
	f, what, err := lu.Factorize(s.fact, j, lu.Options{ColPerm: s.perm, Hint: s.opt.Hint})
	if err != nil {
		return what, err
	}
	s.fact = f
	what.Count(&s.res.Factorizations, &s.res.Refactorizations, &s.res.FactorReuses)
	switch what {
	case lu.Replayed:
		s.res.FactorReplays++
		fallthrough
	case lu.Factored:
		s.opt.Hint = nil
	}
	s.res.FillNNZ = f.LNNZ() + f.UNNZ()
	s.so.fill.Set(float64(s.res.FillNNZ))
	if what == lu.Reused {
		s.so.reuses.Inc()
	}
	return what, nil
}

// buildRHS forms the adjoint right-hand side of objective o at step i in
// s.lam[o] (including the objective's own ∂O/∂x source), using tmp as Jᵀλ
// scratch. Reads J/C values and s.lamNext only — safe to run concurrently
// across objectives, and concurrently with factorization (which reads J and
// writes only factor internals).
func (s *sweep) buildRHS(o, i int, J, C *sparse.Matrix, tmp []float64) {
	lam, lamNext := s.lam[o], s.lamNext[o]
	if i == s.n {
		for k := range lam {
			lam[k] = 0
		}
	} else if !s.trap {
		// Backward Euler: rhs = (1/h_{i+1}) C_iᵀ λ_{i+1}.
		C.MulVecT(lamNext, lam)
		invH := 1 / s.tr.Hs[i+1]
		for k := range lam {
			lam[k] *= invH
		}
	} else {
		// Trapezoidal: ∂F_{i+1}/∂x_i = −C_i/h_{i+1} + ½G_i, with
		// ½G_i = J_i − C_i/h_i for i ≥ 1 and ½G_0 = ½J_0 at the DC step.
		// rhs = −(∂F_{i+1}/∂x_i)ᵀ λ_{i+1}.
		C.MulVecT(lamNext, lam)
		J.MulVecT(lamNext, tmp)
		if i >= 1 {
			coef := 1/s.tr.Hs[i+1] + 1/s.tr.Hs[i]
			for k := range lam {
				lam[k] = coef*lam[k] - tmp[k]
			}
		} else {
			coef := 1 / s.tr.Hs[1]
			for k := range lam {
				lam[k] = coef*lam[k] - 0.5*tmp[k]
			}
		}
	}
	// The objective's ∂O/∂x_i source enters at its own step(s).
	if w := s.objs[o].sourceAt(i, s.n, s.tr.Hs[i]); w != 0 {
		lam[s.objs[o].Node] += w
	}
}

// processStep consumes step i's Jacobian tensors: factorize, build and
// solve the K adjoint systems, accumulate the parameter gradients, and
// update the pend carries.
func (s *sweep) processStep(i int, jv, cv []float64) error {
	J := &sparse.Matrix{P: s.ckt.JPat, Val: jv}
	C := &sparse.Matrix{P: s.ckt.CPat, Val: cv}

	ssp := s.so.rec.Start(s.sweepSpan, span.Solve, i)
	tSolve := time.Now()
	var what lu.Outcome
	var factErr error
	// Shard 0 factorizes first; every shard builds its part of the RHS, the
	// others while shard 0 factorizes. Whichever goroutine runs shard 0, the
	// factors are the same bits.
	workpool.Do(s.workers, func(w int) {
		if w == 0 {
			what, factErr = s.factorize(J)
		}
		lo, hi := shard(w, s.workers, len(s.objs))
		for o := lo; o < hi; o++ {
			s.buildRHS(o, i, J, C, s.tmps[w])
		}
	})
	if factErr != nil {
		ssp.End()
		return fmt.Errorf("adjoint: factor step %d: %w", i, factErr)
	}
	s.fact.SolveTMulti(s.lam)
	ssp.Attr("objs", int64(len(s.objs)))
	ssp.Attr("lu", int64(what)) // lu.Outcome: 0 reused, 1 refactor, 2 factor, 3 replay
	ssp.End()
	d := time.Since(tSolve)
	s.res.Timing.FactorSolve += d
	s.so.solveSec.AddDuration(d)

	// Accumulate dO/dp contributions of step i, sharded over parameters.
	// Each shard owns a disjoint contiguous pk range and its own
	// evaluator/accumulator scratch; the per-cell operation sequence is
	// exactly the serial one, and Do's barrier keeps the cross-step
	// accumulation order serial too — so the merge is deterministic and the
	// result bit-identical for every worker count.
	psp := s.so.rec.Start(s.sweepSpan, span.ParamEval, i)
	tPar := time.Now()
	xi, ti := s.tr.States[i], s.tr.Times[i]
	workpool.Do(s.workers, func(w int) {
		var shsp span.Span
		if s.workers > 1 && s.so.rec != nil {
			shsp = s.so.rec.Start(psp.ID(), span.ParamShard, i)
			shsp.Attr("worker", int64(w))
			defer shsp.End()
		}
		lo, hi := shard(w, s.workers, len(s.params))
		if lo >= hi {
			return
		}
		ev, acc := s.evs[w], s.accs[w]
		for pk := lo; pk < hi; pk++ {
			acc.Reset()
			ev.ParamSens(s.params[pk], xi, ti, acc)
			for o := range s.objs {
				contrib := 0.0
				if i >= 1 {
					invH := 1 / s.tr.Hs[i]
					for _, k := range acc.Touched {
						// dfdp_i weight: λ_i for BE, ½λ_i + ½λ_{i+1} for
						// the trapezoidal rule.
						fw := s.lam[o][k]
						if s.trap {
							fw = 0.5*s.lam[o][k] + s.pendF[o][k]
						}
						// dqdp_i weight: λ_i/h_i − λ_{i+1}/h_{i+1}.
						contrib += fw*acc.DFdp[k] +
							(invH*s.lam[o][k]-s.pendQ[o][k])*acc.DQdp[k]
					}
				} else {
					// At i=0 F_0 = f(x_0): full λ_0 weight on dfdp, plus
					// the carries from F_1.
					for _, k := range acc.Touched {
						fw := s.lam[o][k]
						if s.trap {
							fw += s.pendF[o][k]
						}
						contrib += fw*acc.DFdp[k] - s.pendQ[o][k]*acc.DQdp[k]
					}
				}
				// With the Lagrangian L = O − Σ λᵀF and the adjoint
				// equations satisfied, dO/dp = −Σ λ_iᵀ ∂F_i/∂p.
				s.res.DOdp[o][pk] -= contrib
			}
		}
	})
	psp.Attr("params", int64(len(s.params)))
	psp.End()
	d = time.Since(tPar)
	s.res.Timing.ParamEval += d
	s.so.paramSec.AddDuration(d)
	s.so.shards.Add(float64(s.workers))
	s.so.steps.Inc()

	for o := range s.objs {
		if i >= 1 {
			invH := 1 / s.tr.Hs[i]
			for k, v := range s.lam[o] {
				s.pendQ[o][k] = invH * v
			}
			if s.trap {
				for k, v := range s.lam[o] {
					s.pendF[o][k] = 0.5 * v
				}
			}
		}
		s.lamNext[o], s.lam[o] = s.lam[o], s.lamNext[o]
	}
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
