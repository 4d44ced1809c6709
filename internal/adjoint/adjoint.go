// Package adjoint implements discrete adjoint transient sensitivity
// analysis (the reverse pass of the MASC paper) together with the direct
// (forward) method used as a cross-check and baseline.
//
// For the backward-Euler residual chain
//
//	F_i(x_i, x_{i-1}, p) = (q(x_i) - q(x_{i-1}))/h_i + f(x_i, t_i, p) = 0
//
// and an objective O = Σ w·x_n[node] of the final state, the adjoint
// recurrence is
//
//	J_nᵀ λ_n = ∂O/∂x_nᵀ
//	J_iᵀ λ_i = (1/h_{i+1}) C_iᵀ λ_{i+1}      (i = n-1 … 0, J_0 = G_0)
//
// and the sensitivity accumulates as dO/dp = Σ_i λ_iᵀ ∂F_i/∂p. The
// Jacobians J_i = G_i + C_i/h_i and C_i = ∂q/∂x|_i are exactly the matrices
// the forward transient run already computed; JacobianSource abstracts
// where they come back from — recomputation (Xyce-style), raw memory, disk,
// or MASC-compressed memory. What is kept is the pair the devices produce,
// (G_i, C_i); the sweep rebuilds J_i from it as it fetches
// (Options.StoredGC, transient.Result.AssembleJ).
package adjoint

import (
	"context"
	"fmt"
	"time"

	"masc/internal/circuit"
	"masc/internal/device"
	"masc/internal/lu"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// JacobianSource supplies the per-step Jacobian tensors during the reverse
// sweep. Fetch is called in strictly decreasing step order (n, n-1, …, 0);
// the returned slices are valid until the matching Release.
//
// Every call comes from the sweep's fetcher goroutine, one at a time. A
// sweep the caller's context stops while it waits on that fetcher returns
// without waiting for it, so the fetcher's last Fetch and Release may run
// concurrently with whatever the caller does next — typically closing the
// source. A source must tolerate that: calls after its Close fail or do
// nothing, they do not race.
type JacobianSource interface {
	// Fetch returns step i's pair: the G values (on the circuit's GPat) and
	// C values (on CPat) under Options.StoredGC, the assembled J values (on
	// JPat) and C values otherwise.
	Fetch(i int) (jVals, cVals []float64, err error)
	// Release indicates step i will not be fetched again.
	Release(i int)
}

// Objective selects one scalar objective: O = Weight · x_k[Node], where k
// is Step for positive Step and the final timestep when Step is zero (the
// common case). Objectives at many distinct time points are exactly the
// workload that makes Jacobian reuse worthwhile (Hu et al., DAC'20, cited
// by the MASC paper).
type Objective struct {
	Name   string
	Node   int32
	Weight float64
	Step   int // 0 = final step; otherwise the 1-based step index
	// Integral switches the objective to the time integral
	// O = Weight · Σ_i h_i·x_i[Node] ≈ Weight · ∫ x[Node] dt — the
	// "objective at many time points" class in its densest form. Step is
	// ignored when Integral is set.
	Integral bool
}

// effStep resolves the objective's step index for a trajectory of n steps.
func (o *Objective) effStep(n int) int {
	if o.Step <= 0 || o.Step > n {
		return n
	}
	return o.Step
}

// sourceAt returns the ∂O/∂x_i[Node] adjoint source weight at step i.
func (o *Objective) sourceAt(i, n int, h float64) float64 {
	if o.Integral {
		if i == 0 {
			return 0
		}
		return o.Weight * h
	}
	if o.effStep(n) == i {
		return o.Weight
	}
	return 0
}

// Options configures a sensitivity analysis.
type Options struct {
	// Params are indices into ckt.Params(); nil means all parameters.
	Params []int

	// StoredGC says the source holds what the devices produce — (G_i, C_i)
	// on GPat and CPat — and the sweep assembles J_i itself as it fetches;
	// the degradation ladder then recomputes and repairs that pair. It is
	// the layout of every store this repository builds. The zero value is
	// the (J_i, C_i) contract benchmark/trace.go still assembles its
	// pipeline against; it goes when that file moves to CaptureGC.
	StoredGC bool

	// Obs, if non-nil, receives per-step telemetry: the masc_adjoint_*
	// metric families and, when it carries a span recorder, the spans
	// adjoint and sweep, then per step fetch (wait_ns, degraded), solve and
	// param_eval (param_shard under it with more than one worker).
	Obs *obs.Observer

	// Workers is how many shards the reverse sweep splits the
	// parameter-gradient loop and the per-objective RHS builds into, each
	// step, on the process-wide worker pool (internal/workpool); 0 and 1
	// both mean one, run on the sweep's goroutine. Whatever its value, the
	// sweep reads the source through a fetcher goroutine one step ahead of
	// the compute. Results are bit-identical for every value of Workers.
	// DirectSensitivities runs serially and ignores it.
	Workers int

	// Deprecated: has no effect; one reverse sweep runs.
	Windows int

	// Hint, if non-nil, is a factorization on the circuit's JPat — normally
	// the one the forward pass's last Newton iteration used — whose pivot
	// order the sweep's first fresh factorization tries before it searches
	// (lu.Options.Hint). The result is bit-identical either way. The sweep
	// only reads it, and drops it after that factorization.
	Hint *lu.LU

	// SpanParent is the span the adjoint pass nests under (normally the
	// run root). Spans are recorded only when Obs carries a recorder.
	SpanParent span.ID

	// Ctx, if non-nil, cancels the reverse sweep cooperatively: the sweep
	// polls it at step boundaries and while it waits for a fetch, and
	// aborts with an error wrapping the context's error. A wedged fetch
	// cannot hold the sweep past a deadline: its fetcher goroutine is
	// abandoned and drained asynchronously.
	Ctx context.Context
}

// DegradeError reports a step that could be neither fetched nor
// recomputed: the sweep cannot continue correctly, so it fails loudly,
// naming the step and both causes.
type DegradeError struct {
	Step      int
	Fetch     error // the original storage failure
	Recompute error // why the recomputation fallback also failed
}

func (e *DegradeError) Error() string {
	return fmt.Sprintf("adjoint: step %d unrecoverable: fetch failed (%v) and recompute failed (%v)",
		e.Step, e.Fetch, e.Recompute)
}

func (e *DegradeError) Unwrap() error { return e.Fetch }

// FailedStep names the step for diagnosability checks.
func (e *DegradeError) FailedStep() int { return e.Step }

// sweepObs is the resolved telemetry bundle of one reverse sweep; the
// zero value is a no-op.
type sweepObs struct {
	on        bool
	rec       *span.Recorder
	steps     *obs.Counter
	fetchSec  *obs.Counter
	waitSec   *obs.Counter
	hiddenSec *obs.Counter
	solveSec  *obs.Counter
	paramSec  *obs.Counter
	degraded  *obs.Counter
	reuses    *obs.Counter
	fill      *obs.Gauge
	shards    *obs.Counter
	workers   *obs.Gauge
}

func newSweepObs(o *obs.Observer) sweepObs {
	if o == nil {
		return sweepObs{}
	}
	reg := o.Registry()
	return sweepObs{
		on:        true,
		rec:       o.SpanRecorder(),
		steps:     reg.Counter("masc_adjoint_steps_total", "Reverse-sweep steps completed."),
		fetchSec:  reg.Counter("masc_adjoint_fetch_seconds_total", "Jacobian acquisition time (recompute/decompress/IO)."),
		waitSec:   reg.Counter("masc_adjoint_fetch_wait_seconds_total", "Solver-visible fetch wait (time the sweep blocked on Jacobian acquisition)."),
		hiddenSec: reg.Counter("masc_adjoint_fetch_hidden_seconds_total", "Fetch time hidden behind compute by the fetch/solve overlap."),
		solveSec:  reg.Counter("masc_adjoint_solve_seconds_total", "LU factorization and adjoint solve time."),
		paramSec:  reg.Counter("masc_adjoint_param_seconds_total", "Parameter sensitivity (dF/dp) accumulation time."),
		degraded:  reg.Counter("masc_store_degraded_total", "Reverse-sweep steps recovered by per-step recomputation after a storage failure."),
		reuses:    reg.Counter("masc_lu_factor_reuse_total", "Factor requests answered by the factors in hand because the Jacobian was bit-identical.", "pass", "reverse"),
		fill:      reg.Gauge("masc_lu_fill_nnz", "Off-diagonal entries of L and U in the factors in hand.", "pass", "reverse"),
		shards:    reg.Counter("masc_adjoint_param_shards_total", "Parameter-gradient shard tasks executed."),
		workers:   reg.Gauge("masc_adjoint_workers", "Worker count of the most recent adjoint sweep."),
	}
}

// Timing is the wall-clock split of a sensitivity run.
type Timing struct {
	Total time.Duration
	// Fetch is the solver-visible Jacobian acquisition time: the time the
	// sweep blocked waiting for its fetcher to deliver a step. The full
	// recompute/decompress/IO cost, and the part of it hidden behind
	// compute, are reported through the masc_adjoint_fetch_* metrics.
	Fetch       time.Duration
	FactorSolve time.Duration // LU factorizations and adjoint solves
	ParamEval   time.Duration // ∂F/∂p accumulation
}

// Result carries the sensitivities dO/dp.
type Result struct {
	// DOdp[o][k] is the sensitivity of objectives[o] with respect to
	// parameter Params[k].
	DOdp   [][]float64
	Params []int
	Timing Timing
	// DegradedSteps lists the steps (in sweep order, descending) whose
	// stored Jacobians could not be fetched and were recomputed instead.
	// Empty on a healthy run.
	DegradedSteps []int

	// What the per-step factor requests took, as in transient.Stats: fresh
	// factorizations, numeric refactorizations along recorded pivots, and
	// requests the factors in hand already answered because the step's
	// Jacobian was bit-identical to the previous one's. FactorReplays counts
	// the factorizations that replayed Options.Hint's pivot order instead of
	// searching. FillNNZ is the off-diagonal entries of L and U in the factors
	// in hand when the sweep ended.
	Factorizations   int
	Refactorizations int
	FactorReuses     int
	FactorReplays    int
	FillNNZ          int

	// Windows is always 1: one reverse sweep runs, whatever
	// Options.Windows asks for.
	//
	// Deprecated: kept for callers that still read it.
	Windows int
	// WindowSweepSec is always nil.
	//
	// Deprecated: kept for callers that still read it.
	WindowSweepSec []float64
}

// Sensitivities runs the adjoint reverse sweep over the trajectory tr. Its
// fetcher overlaps each Jacobian fetch with the previous step's compute, and
// opt.Workers > 1 shards the per-step work across the process-wide worker
// pool; results are bit-identical for every worker count (see parallel.go
// for the engine and the argument).
func Sensitivities(ckt *circuit.Circuit, tr *transient.Result, src JacobianSource, objs []Objective, opt Options) (*Result, error) {
	if tr.Steps() < 1 {
		return nil, fmt.Errorf("adjoint: trajectory has no integration steps")
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("adjoint: no objectives")
	}
	params := opt.Params
	if params == nil {
		params = make([]int, len(ckt.Params()))
		for i := range params {
			params[i] = i
		}
	}
	trap, err := isTrap(tr)
	if err != nil {
		return nil, err
	}
	// The adjoint root span: the sweep span and its fetch/solve spans nest
	// under it via opt.SpanParent.
	rec := opt.Obs.SpanRecorder()
	asp := rec.Start(opt.SpanParent, span.Adjoint, -1)
	asp.Attr("workers", int64(opt.Workers))
	asp.Attr("objs", int64(len(objs)))
	defer asp.End()
	opt.SpanParent = asp.ID()
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	s := newSweep(ckt, tr, src, objs, params, trap, opt)
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// isTrap resolves the trajectory's integration method (an empty Method is
// treated as backward Euler for manually assembled Results).
func isTrap(tr *transient.Result) (bool, error) {
	switch tr.Method {
	case "", transient.MethodBE:
		return false, nil
	case transient.MethodTrap:
		return true, nil
	default:
		return false, fmt.Errorf("adjoint: unsupported integration method %q", tr.Method)
	}
}

// DirectSensitivities computes the same dO/dp with the forward (direct)
// method: one sensitivity state s = ∂x/∂p propagated per parameter. It is
// O(#params) solves per step versus the adjoint's O(#objectives) and serves
// as an independent cross-check: the reference the reverse sweep is checked
// against. It runs serially on the calling goroutine (opt.Workers is
// ignored), and all per-parameter solves of a step share one blocked
// multi-RHS kernel.
func DirectSensitivities(ckt *circuit.Circuit, tr *transient.Result, objs []Objective, opt Options) (*Result, error) {
	return directSensitivities(ckt, tr, objs, opt, nil)
}

// directSensitivities is DirectSensitivities starting from the factors in
// fact (nil for none), the seam its tests inject a foreign factorization
// through.
func directSensitivities(ckt *circuit.Circuit, tr *transient.Result, objs []Objective, opt Options, fact *lu.LU) (*Result, error) {
	n := tr.Steps()
	if n < 1 {
		return nil, fmt.Errorf("adjoint: trajectory has no integration steps")
	}
	params := opt.Params
	if params == nil {
		params = make([]int, len(ckt.Params()))
		for i := range params {
			params[i] = i
		}
	}
	trap, err := isTrap(tr)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	N := ckt.N
	ev := circuit.NewEval(ckt)
	J := sparse.NewMatrix(ckt.JPat)
	perm := ckt.JPerm()
	res := &Result{
		DOdp:   make([][]float64, len(objs)),
		Params: params,
	}
	for o := range objs {
		res.DOdp[o] = make([]float64, len(params))
	}

	factorize := func() error {
		f, what, err := lu.Factorize(fact, J, lu.Options{ColPerm: perm})
		if err != nil {
			return err
		}
		fact = f
		what.Count(&res.Factorizations, &res.Refactorizations, &res.FactorReuses)
		res.FillNNZ = f.LNNZ() + f.UNNZ()
		return nil
	}

	s := make([][]float64, len(params))      // s_i per parameter
	rhsAll := make([][]float64, len(params)) // per-parameter right-hand sides
	for k := range s {
		s[k] = make([]float64, N)
		rhsAll[k] = make([]float64, N)
	}
	acc := device.NewSensAccum(N)
	gs := make([]float64, N) // G_{i-1}·s workspace
	// prevQ holds the previous step's sparse ∂q/∂p pairs per parameter.
	type kv struct {
		k int32
		v float64
	}
	prevQ := make([][]kv, len(params))
	prevF := make([][]kv, len(params)) // trapezoidal dfdp_{i-1} carry
	cPrev := sparse.NewMatrix(ckt.CPat)
	gPrev := sparse.NewMatrix(ckt.GPat)

	// Step 0: DC sensitivity G_0 s_0 = -dfdp_0.
	ev.Run(tr.States[0], tr.Times[0])
	tr.AssembleJ(ckt, 0, J.Val, ev.G.Val, ev.C.Val)
	if err := factorize(); err != nil {
		return nil, fmt.Errorf("adjoint: direct DC factor: %w", err)
	}
	for pk := range params {
		acc.Reset()
		ev.ParamSens(params[pk], tr.States[0], tr.Times[0], acc)
		rhs := rhsAll[pk]
		for k := range rhs {
			rhs[k] = 0
		}
		for _, k := range acc.Touched {
			rhs[k] = -acc.DFdp[k]
			prevQ[pk] = append(prevQ[pk], kv{k, acc.DQdp[k]})
			if trap {
				prevF[pk] = append(prevF[pk], kv{k, acc.DFdp[k]})
			}
		}
	}
	fact.SolveMulti(rhsAll)
	for pk := range params {
		s[pk], rhsAll[pk] = rhsAll[pk], s[pk]
	}
	copy(cPrev.Val, ev.C.Val)
	copy(gPrev.Val, ev.G.Val)

	for i := 1; i <= n; i++ {
		h := tr.Hs[i]
		invH := 1 / h
		ev.Run(tr.States[i], tr.Times[i])
		tr.AssembleJ(ckt, i, J.Val, ev.G.Val, ev.C.Val)
		if err := factorize(); err != nil {
			return nil, fmt.Errorf("adjoint: direct factor step %d: %w", i, err)
		}
		for pk := range params {
			acc.Reset()
			ev.ParamSens(params[pk], tr.States[i], tr.Times[i], acc)
			// BE:   rhs = C_{i-1}s/h − (dqdp_i − dqdp_{i-1})/h − dfdp_i.
			// Trap: rhs = C_{i-1}s/h − ½G_{i-1}s − (dqdp_i − dqdp_{i-1})/h
			//             − ½(dfdp_i + dfdp_{i-1}).
			rhs := rhsAll[pk]
			cPrev.MulVec(s[pk], rhs)
			for k := range rhs {
				rhs[k] *= invH
			}
			if trap {
				gPrev.MulVec(s[pk], gs)
				for k := range rhs {
					rhs[k] -= 0.5 * gs[k]
				}
				for _, k := range acc.Touched {
					rhs[k] -= invH*acc.DQdp[k] + 0.5*acc.DFdp[k]
				}
				for _, e := range prevF[pk] {
					rhs[e.k] -= 0.5 * e.v
				}
				prevF[pk] = prevF[pk][:0]
				for _, k := range acc.Touched {
					prevF[pk] = append(prevF[pk], kv{k, acc.DFdp[k]})
				}
			} else {
				for _, k := range acc.Touched {
					rhs[k] -= invH*acc.DQdp[k] + acc.DFdp[k]
				}
			}
			for _, e := range prevQ[pk] {
				rhs[e.k] += invH * e.v
			}
			prevQ[pk] = prevQ[pk][:0]
			for _, k := range acc.Touched {
				prevQ[pk] = append(prevQ[pk], kv{k, acc.DQdp[k]})
			}
		}
		fact.SolveMulti(rhsAll)
		for pk := range params {
			s[pk], rhsAll[pk] = rhsAll[pk], s[pk]
		}
		copy(cPrev.Val, ev.C.Val)
		if trap {
			copy(gPrev.Val, ev.G.Val)
		}
		// Harvest objectives anchored at (or integrating over) this step.
		for o := range objs {
			if objs[o].Integral {
				for pk := range params {
					res.DOdp[o][pk] += objs[o].Weight * h * s[pk][objs[o].Node]
				}
			} else if objs[o].effStep(n) == i {
				for pk := range params {
					res.DOdp[o][pk] = objs[o].Weight * s[pk][objs[o].Node]
				}
			}
		}
	}
	res.Timing.Total = time.Since(t0)
	return res, nil
}

// XyceNaiveSensitivities reproduces the pre-MASC flow the paper's Table 1
// times: the adjoint is solved once per objective, and every sweep
// recomputes every per-step Jacobian from scratch. With stored (or
// compressed) tensors the same objectives share one sweep — that gap is
// the paper's motivation.
func XyceNaiveSensitivities(ckt *circuit.Circuit, tr *transient.Result, objs []Objective, opt Options) (*Result, error) {
	var total *Result
	opt.StoredGC = true
	for o := range objs {
		src := NewRecomputeSource(ckt, tr).Pairs()
		r, err := Sensitivities(ckt, tr, src, objs[o:o+1], opt)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = r
			continue
		}
		total.DOdp = append(total.DOdp, r.DOdp[0])
		total.Timing.Total += r.Timing.Total
		total.Timing.Fetch += r.Timing.Fetch
		total.Timing.FactorSolve += r.Timing.FactorSolve
		total.Timing.ParamEval += r.Timing.ParamEval
		total.Factorizations += r.Factorizations
		total.Refactorizations += r.Refactorizations
		total.FactorReuses += r.FactorReuses
		total.FactorReplays += r.FactorReplays
	}
	return total, nil
}
