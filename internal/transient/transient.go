// Package transient implements the forward time-domain analysis: a DC
// operating point (plain Newton, then gmin stepping if that fails) followed
// by fixed-step backward-Euler integration with a damped Newton–Raphson
// solve at every timestep. The CaptureGC hook hands the converged per-step
// device matrices (G = ∂f/∂x and C = ∂q/∂x) to the caller — this is where
// MASC's compression pipeline attaches during forward integration;
// Result.AssembleJ rebuilds the system Jacobian J = G + C/h from them, bit
// for bit.
package transient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"masc/internal/circuit"
	"masc/internal/lu"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/sparse"
)

// Options configures a transient run. Its JSON encoding is the run's solver
// shape, which a journal records: the per-process fields — hooks, context,
// telemetry, resume state, the Newton wall-time budget — are tagged `json:"-"`,
// so decoding a journaled value over a caller's Options keeps the caller's.
type Options struct {
	TStop  float64 // end time (required, > TStart)
	TStep  float64 // base step size (required, > 0)
	TStart float64 // start time, default 0

	MaxNewton int     // Newton iteration cap per solve, default 60
	AbsTol    float64 // absolute state-delta tolerance, default 1e-9
	RelTol    float64 // relative state-delta tolerance, default 1e-6
	Gmin      float64 // diagonal conductance floor in DC, default 1e-12

	// Method selects the integration scheme: MethodBE (default, the
	// paper's setting) or MethodTrap (trapezoidal, second order — the
	// Xyce default). The adjoint package understands both.
	Method Method

	// Adaptive enables local-truncation-error step control: TStep becomes
	// the initial step, bounded by [TStep/128, 8·TStep]. The LTE is
	// estimated from a forward-Euler predictor; steps with scaled error
	// above 1 are rejected and halved, smooth stretches grow the step. Off
	// by default: the paper's experiments use the fixed-step grid.
	Adaptive bool

	// CaptureGC, if non-nil, is called after every accepted solution with
	// the evaluator's G = ∂f/∂x and C = ∂q/∂x at the converged state (step 0
	// is the DC operating point, h=0). They are what a Jacobian store keeps:
	// the system Jacobian is a function of them and the trajectory
	// (Result.AssembleJ). The matrices are reused between calls — the callee
	// must copy what it keeps. x is the converged state as the Result records
	// it: a stable array, never written again, which the callee may keep a
	// reference to. A non-nil error aborts the run: storage failures (disk
	// full, a poisoned compression pipeline) surface here instead of panicking
	// mid-solve.
	CaptureGC func(step int, t float64, x []float64, G, C *sparse.Matrix) error `json:"-"`

	// Capture is CaptureGC for callers that want the assembled system
	// Jacobian instead of G: J is the DC Jacobian (G + gmin) at step 0 and
	// G + C/h (½G + C/h for the trapezoidal rule) afterwards, assembled by
	// Result.AssembleJ for the call. When both hooks are set Capture runs
	// first.
	Capture func(step int, t float64, x []float64, J, C *sparse.Matrix) error `json:"-"`

	// Deprecated: never called; nothing in a run consumes step timings.
	StepCost func(step int, d time.Duration) `json:"-"`

	// Ctx, if non-nil, is the run's one stop signal. The loop polls it at
	// every step boundary (a cut retry included), so a signal, a deadline or
	// an explicit cancel halts cleanly: Run returns the partial trajectory
	// accepted so far together with an error that wraps both ErrInterrupted
	// and the context's error. The solver never observes cancellation
	// mid-Newton.
	Ctx context.Context `json:"-"`

	// Resume, if non-nil, restarts the integration from a checkpointed
	// trajectory prefix instead of solving the DC operating point: the
	// prefix is copied into the Result and the loop enters at the step
	// after the checkpoint, carrying the recorded step size and cut count.
	// The capture hooks and AfterStep are NOT replayed for the seeded steps —
	// rebuilding a Jacobian store for them is the caller's job (see
	// adjoint.RecomputeSource).
	Resume *ResumeState `json:"-"`

	// AfterStep, if non-nil, runs after each accepted step has been
	// recorded and captured, receiving the exact loop-carried state: the
	// accepted step index and time, the step size h just taken, the step
	// size nextH the loop will try next, the carried cut count, and the
	// converged solution. The tuple is sufficient to re-enter the loop
	// bit-identically through Resume — this is the write-ahead journal's
	// checkpoint hook. Step 0 (the DC point) is reported with h=0. A
	// non-nil error aborts the run with the partial trajectory.
	AfterStep func(step int, t, h, nextH float64, cuts int, x []float64) error `json:"-"`

	// FreshFactorPerStep drops the LU pivot recipe before every step
	// attempt, so each solve factors from scratch. Pivot reuse chains
	// factorization state across the whole step history, which a
	// checkpoint cannot capture; journaled runs set this so a resumed run
	// takes bit-identical Newton trajectories, trading a few percent of
	// forward time for replayability. The dropped factors stay the next
	// factorization's hint (lu.Options.Hint), whose result is the pivot
	// search's, bit for bit.
	FreshFactorPerStep bool

	// Obs, if non-nil, receives per-step telemetry: the
	// masc_transient_* metric families and, when it carries a span
	// recorder, the spans forward and dc (iters, ladder), then one step span
	// per solve attempt (t_ps, then iters when accepted or cut — 1 a Newton
	// failure, 2 an LTE rejection — when not).
	Obs *obs.Observer `json:"-"`

	// SpanParent is the span the forward pass nests under (normally the
	// run root). Spans are recorded only when Obs carries a recorder.
	SpanParent span.ID `json:"-"`
}

// EstimatedSteps predicts the integration step count of the fixed-step
// grid: round((TStop-TStart)/TStep). Adaptive runs and Newton step cuts can
// land elsewhere — callers (workload sizing) treat this as a planning hint,
// not a promise.
func (o *Options) EstimatedSteps() int {
	if o.TStep <= 0 || o.TStop <= o.TStart {
		return 0
	}
	return int((o.TStop-o.TStart)/o.TStep + 0.5)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxNewton == 0 {
		out.MaxNewton = 60
	}
	if out.AbsTol == 0 {
		out.AbsTol = 1e-9
	}
	if out.RelTol == 0 {
		out.RelTol = 1e-6
	}
	if out.Gmin == 0 {
		out.Gmin = DefaultGmin
	}
	if out.Method == "" {
		out.Method = MethodBE
	}
	return out
}

// DefaultGmin is the DC diagonal conductance floor of a run that sets none.
const DefaultGmin = 1e-12

// Step control, the same for every run.
const (
	maxCuts   = 8   // max step halvings on Newton failure
	dampLimit = 2.0 // max Newton update ∞-norm per iteration
	// lteTol scales the acceptable predictor-corrector gap of an adaptive
	// step relative to the Newton tolerances (the usual trtol-like
	// relaxation).
	lteTol = 1000
)

// ErrInterrupted is wrapped into Run's error when Options.Ctx is done. The
// partial Result is still returned alongside it: every step recorded in it
// was fully accepted and captured before the stop.
var ErrInterrupted = errors.New("transient: interrupted")

// ResumeState seeds Run mid-trajectory from a recovered journal: the
// accepted prefix (steps 0..C of Times/Hs/States) plus the loop-carried
// step size and cut count journaled with checkpoint C.
type ResumeState struct {
	Times  []float64
	Hs     []float64
	States [][]float64
	NextH  float64 // step size the loop tries next
	Cuts   int     // carried cut count at the checkpoint
}

// Method is a numerical integration scheme.
type Method string

const (
	// MethodBE is backward Euler: first order, L-stable, the scheme the
	// MASC paper's adjoint formulation (Eq. 4) assumes.
	MethodBE Method = "be"
	// MethodTrap is the trapezoidal rule: second order, A-stable.
	MethodTrap Method = "trap"
)

// Stats aggregates solver work counters. Every Newton iteration asks for
// factors of its Jacobian once; the three LU counters say what that took:
// a fresh factorization, a numeric refactorization along the recorded
// pivots, or nothing because the Jacobian was bit-identical to the one
// already factored (a linear circuit at a fixed step). FactorReplays counts
// the fresh factorizations that replayed the previous factors' pivot order
// because the pivot search would have chosen it (lu.Options.Hint): the DC
// point's for the first step, and a dropped one's under FreshFactorPerStep.
// The others searched. FillNNZ is what every one of those requests and
// every solve pays for: the off-diagonal entries of L and U in the factors
// in hand when the pass ended.
type Stats struct {
	NewtonIters      int
	Factorizations   int
	Refactorizations int
	FactorReuses     int
	FactorReplays    int
	FillNNZ          int
	StepsAccepted    int
	StepsCut         int
}

// runObs is the resolved telemetry bundle of one transient run. The zero
// value (nil handles) is a no-op, so Run carries no telemetry branches
// beyond a couple of time.Now calls guarded by `on`.
// Why a step attempt was rejected, as the step span's cut attribute carries it.
const (
	cutNewton = 1 // Newton did not converge
	cutLTE    = 2 // the local truncation error estimate was over tolerance
)

type runObs struct {
	on      bool
	rec     *span.Recorder
	steps   *obs.Counter
	cuts    *obs.Counter
	newton  *obs.Counter
	facts   *obs.Counter
	reuses  *obs.Counter
	fill    *obs.Gauge
	stepSec *obs.Histogram
	simTime *obs.Gauge
}

func newRunObs(o *obs.Observer) runObs {
	if o == nil {
		return runObs{}
	}
	reg := o.Registry()
	return runObs{
		on:      true,
		rec:     o.SpanRecorder(),
		steps:   reg.Counter("masc_transient_steps_total", "Accepted integration steps."),
		cuts:    reg.Counter("masc_transient_step_cuts_total", "Step halvings after Newton failure or LTE rejection."),
		newton:  reg.Counter("masc_transient_newton_iters_total", "Newton iterations across all solves."),
		facts:   reg.Counter("masc_transient_factorizations_total", "LU factorizations plus pivot-reusing refactorizations."),
		reuses:  reg.Counter("masc_lu_factor_reuse_total", "Factor requests answered by the factors in hand because the Jacobian was bit-identical.", "pass", "forward"),
		fill:    reg.Gauge("masc_lu_fill_nnz", "Off-diagonal entries of L and U in the factors in hand.", "pass", "forward"),
		stepSec: reg.Histogram("masc_transient_step_seconds", "Wall time per timestep solve attempt.", obs.TimingBuckets()),
		simTime: reg.Gauge("masc_transient_sim_time_seconds", "Simulation time reached by the forward analysis."),
	}
}

// Result is the forward trajectory.
type Result struct {
	Times  []float64   // t_0 .. t_n (t_0 is the DC point)
	Hs     []float64   // Hs[i] = Times[i]-Times[i-1]; Hs[0] = 0
	States [][]float64 // converged states, States[i] aligned with Times[i]
	Method Method      // integration scheme that produced the trajectory
	// Gmin is the diagonal conductance floor the DC Jacobian of step 0
	// carries (Options.Gmin after defaults). Zero, in a Result assembled by
	// hand, means DefaultGmin.
	Gmin  float64
	Stats Stats
}

// Steps returns n, the number of integration steps (len(Times)-1).
func (r *Result) Steps() int { return len(r.Times) - 1 }

// JWeights returns how step i's system Jacobian is formed from the device
// matrices at its converged state: J_i = gw·G_i + cw·C_i, plus gmin on every
// structural diagonal. Step 0 is the DC Jacobian G_0 + gmin; later steps
// carry G + C/h (backward Euler) or ½G + C/h (trapezoidal) and no gmin.
func (r *Result) JWeights(i int) (gw, cw, gmin float64) {
	switch {
	case i == 0:
		if r.Gmin == 0 {
			return 1, 0, DefaultGmin
		}
		return 1, 0, r.Gmin
	case r.Method == MethodTrap:
		return 0.5, 1 / r.Hs[i], 0
	default:
		return 1, 1 / r.Hs[i], 0
	}
}

// AssembleJ writes step i's system Jacobian into j (values on ckt.JPat)
// from G and C values at that step's converged state. Every J outside the
// Newton loop comes from here — the Capture hook's, the recompute source's,
// the direct method's, and the one the adjoint sweep rebuilds from a stored
// (G, C) pair — in the forward pass's operation order, so all of them are
// bit-identical.
func (r *Result) AssembleJ(ckt *circuit.Circuit, i int, j, gVals, cVals []float64) {
	gw, cw, gmin := r.JWeights(i)
	ckt.AssembleJ(j, gVals, cVals, gw, cw)
	if gmin != 0 {
		ckt.AddGmin(&sparse.Matrix{P: ckt.JPat, Val: j}, gmin)
	}
}

// solver carries the reusable machinery of Newton solves.
type solver struct {
	ckt  *circuit.Circuit
	ev   *circuit.Eval
	opt  Options
	J    *sparse.Matrix
	fact *lu.LU
	// hint is factors the next fresh factorization replays if the pivot
	// search would choose their pivots (lu.Options.Hint); it is dropped once
	// a factorization has used it.
	hint *lu.LU
	perm []int32
	res  []float64 // Newton residual / solution buffer
	dx   []float64 // line-search direction
	xTry []float64 // line-search trial point
	st   *Stats
}

func newSolver(ckt *circuit.Circuit, opt Options, st *Stats) *solver {
	return &solver{
		ckt:  ckt,
		ev:   circuit.NewEval(ckt),
		opt:  opt,
		J:    sparse.NewMatrix(ckt.JPat),
		perm: ckt.JPerm(),
		res:  make([]float64, ckt.N),
		st:   st,
	}
}

// newton solves the nonlinear system whose residual and Jacobian are
// produced by eval(x) into s.ev/s.res/s.J, updating x in place. A
// backtracking line search on the residual ∞-norm tames the on/off
// oscillation of exponential junctions that plain damped Newton falls into.
func (s *solver) newton(x []float64, eval func(x []float64)) error {
	opt := &s.opt
	resNorm := func() float64 {
		worst := 0.0
		for _, r := range s.res {
			if a := math.Abs(r); a > worst {
				worst = a
			}
		}
		return worst
	}
	if s.dx == nil {
		s.dx = make([]float64, len(x))
		s.xTry = make([]float64, len(x))
	}
	eval(x)
	rnorm := resNorm()
	for iter := 0; iter < opt.MaxNewton; iter++ {
		s.st.NewtonIters++
		f, what, err := lu.Factorize(s.fact, s.J, lu.Options{ColPerm: s.perm, Hint: s.hint})
		if err != nil {
			return fmt.Errorf("transient: newton iteration %d: %w", iter, err)
		}
		s.fact = f
		what.Count(&s.st.Factorizations, &s.st.Refactorizations, &s.st.FactorReuses)
		switch what {
		case lu.Replayed:
			s.st.FactorReplays++
			fallthrough
		case lu.Factored:
			s.hint = nil
		}
		s.st.FillNNZ = f.LNNZ() + f.UNNZ()
		s.fact.Solve(s.res) // res now holds dx = J⁻¹ r
		copy(s.dx, s.res)
		// Convergence test on the undamped update. Damping considers node
		// voltages only: branch currents may legitimately jump by amperes
		// in one iteration (e.g. a source feeding an exponential junction)
		// and clamping them stalls the solve.
		worst := 0.0
		maxdv := 0.0
		for i, dx := range s.dx {
			lim := opt.AbsTol + opt.RelTol*math.Abs(x[i])
			if r := math.Abs(dx) / lim; r > worst {
				worst = r
			}
			if s.ckt.VoltageUnknown[i] {
				if a := math.Abs(dx); a > maxdv {
					maxdv = a
				}
			}
		}
		if worst < 1 {
			// The Newton update is below tolerance everywhere: converged.
			// Take the full update so the final state is as exact as the
			// linearization allows.
			for i := range x {
				x[i] -= s.dx[i]
			}
			eval(x)
			return nil
		}
		// Initial step scale: cap the voltage-update ∞-norm.
		t0 := 1.0
		if maxdv > dampLimit {
			t0 = dampLimit / maxdv
		}
		// Backtracking line search on the residual ∞-norm, with a
		// nonmonotone fallback: exponential-junction residuals can rise
		// transiently along a perfectly good Newton direction, so after a
		// failed search we take the full damped step rather than creep.
		t := t0
		accepted := false
		var rTry float64
		for ls := 0; ls < 8; ls++ {
			for i := range x {
				s.xTry[i] = x[i] - t*s.dx[i]
			}
			eval(s.xTry)
			rTry = resNorm()
			if rTry <= rnorm*(1-1e-4*t)+1e-300 {
				accepted = true
				break
			}
			t /= 2
		}
		if !accepted {
			t = t0
			for i := range x {
				s.xTry[i] = x[i] - t*s.dx[i]
			}
			eval(s.xTry)
			rTry = resNorm()
		}
		copy(x, s.xTry)
		rnorm = rTry
	}
	return fmt.Errorf("transient: newton did not converge in %d iterations", opt.MaxNewton)
}

// DCOperatingPoint solves f(x, t) + gmin·x = 0 from the zero state: plain
// Newton at opt.Gmin, and gmin stepping if that fails (see solver.dc).
func DCOperatingPoint(ckt *circuit.Circuit, t float64, opt Options) ([]float64, Stats, error) {
	opt = opt.withDefaults()
	var st Stats
	x, _, err := newSolver(ckt, opt, &st).dc(t)
	return x, st, err
}

// dc solves the DC operating point at time t, leaving its factors in s.fact.
// It runs plain Newton from the zero state at the floor gmin first, as SPICE
// does. Only if that fails (or ends off the finite numbers) does it clear the
// state and the factors and descend the gmin ladder — so a circuit that needs
// the ladder gets the ladder's bits, and one that does not is spared its
// rungs. ladder reports which of the two converged.
func (s *solver) dc(t float64) (x []float64, ladder bool, err error) {
	x = make([]float64, s.ckt.N)
	if s.newton(x, s.dcEval(t, s.opt.Gmin)) == nil && finite(x) {
		return x, false, nil
	}
	clear(x)
	s.fact = nil
	if err := s.gminLadder(t, x); err != nil {
		return nil, true, err
	}
	return x, true, nil
}

// gminLadder solves the DC point into x, which holds the starting state, by
// descending the gmin ladder; each rung starts from the previous solution.
func (s *solver) gminLadder(t float64, x []float64) error {
	for _, g := range []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10, s.opt.Gmin} {
		if err := s.newton(x, s.dcEval(t, g)); err != nil {
			return fmt.Errorf("transient: DC at gmin=%g: %w", g, err)
		}
	}
	return nil
}

// dcEval returns the Newton evaluation of the DC system f(x, t) + g·x = 0.
func (s *solver) dcEval(t, g float64) func(x []float64) {
	return func(x []float64) {
		s.ev.Run(x, t)
		for i := range s.res {
			s.res[i] = s.ev.F[i] + g*x[i]
		}
		s.ev.BuildJ(s.J, 0)
		s.ckt.AddGmin(s.J, g)
	}
}

// finite reports whether every entry of x is a finite number.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Run performs the full analysis: DC point, then backward-Euler steps until
// TStop, invoking the capture hooks after every accepted solution.
func Run(ckt *circuit.Circuit, opt Options) (*Result, error) {
	return run(ckt, opt, nil)
}

// RunFactored is Run that also returns the factors of the Jacobian the last
// Newton iteration factored, nil if no step ran one (a resumed run that had
// nothing left to integrate). They are the reverse sweep's hint for its first
// factorization (adjoint.Options.Hint); nothing else holds them.
func RunFactored(ckt *circuit.Circuit, opt Options) (*Result, *lu.LU, error) {
	var last *lu.LU
	res, err := run(ckt, opt, &last)
	return res, last, err
}

// run is Run; on success it leaves the solver's last factors in *last when
// last is non-nil.
func run(ckt *circuit.Circuit, opt Options, last **lu.LU) (*Result, error) {
	opt = opt.withDefaults()
	if opt.TStep <= 0 || opt.TStop <= opt.TStart {
		return nil, fmt.Errorf("transient: bad time axis [%g, %g] step %g", opt.TStart, opt.TStop, opt.TStep)
	}
	if opt.Method != MethodBE && opt.Method != MethodTrap {
		return nil, fmt.Errorf("transient: unknown integration method %q", opt.Method)
	}
	trap := opt.Method == MethodTrap
	res := &Result{Method: opt.Method, Gmin: opt.Gmin}
	ro := newRunObs(opt.Obs)
	fsp := ro.rec.Start(opt.SpanParent, span.Forward, -1)
	defer fsp.End()
	// The forward loop publishes its current step span as the recorder's
	// dynamic scope so store-side spans (put/compress) nest causally under
	// the step that triggered them; clear it however the loop exits.
	defer ro.rec.SetScope(0)
	record := func(t, h float64, xx []float64) {
		res.Times = append(res.Times, t)
		res.Hs = append(res.Hs, h)
		res.States = append(res.States, append([]float64(nil), xx...))
	}

	var (
		s            *solver
		x            []float64
		qPrev, fPrev []float64
		t, h         float64
		cuts         int
		xPrev        []float64 // previous accepted state, for the LTE predictor
		hPrev        float64
		startStep    int
	)
	// capture hands the step just recorded to the hooks, with its recorded
	// state — the Result's own array, which nothing writes again, so a hook may
	// keep it. The evaluator holds G and C at the converged state; J is
	// assembled only for a caller that asked for it, into the solver's matrix
	// (the next Newton evaluation rebuilds it anyway).
	capturing := opt.Capture != nil || opt.CaptureGC != nil
	capture := func(step int, t float64) error {
		xr := res.States[len(res.States)-1]
		if opt.Capture != nil {
			res.AssembleJ(ckt, step, s.J.Val, s.ev.G.Val, s.ev.C.Val)
			if err := opt.Capture(step, t, xr, s.J, s.ev.C); err != nil {
				return err
			}
		}
		if opt.CaptureGC != nil {
			return opt.CaptureGC(step, t, xr, s.ev.G, s.ev.C)
		}
		return nil
	}
	if rs := opt.Resume; rs != nil {
		C := len(rs.States) - 1
		if C < 0 || len(rs.Times) != C+1 || len(rs.Hs) != C+1 || rs.NextH <= 0 {
			return nil, fmt.Errorf("transient: malformed resume state: %d states, %d times, %d step sizes, next h %g",
				len(rs.States), len(rs.Times), len(rs.Hs), rs.NextH)
		}
		for i, st := range rs.States {
			if len(st) != ckt.N {
				return nil, fmt.Errorf("transient: resume state %d has %d unknowns, circuit has %d", i, len(st), ckt.N)
			}
			record(rs.Times[i], rs.Hs[i], st)
		}
		s = newSolver(ckt, opt, &res.Stats)
		x = append([]float64(nil), rs.States[C]...)
		// Re-evaluating the checkpoint state regenerates the integrator's
		// charge/current history: Eval is stateless, so Q and F come back
		// bit-identical to what the original run carried at step C.
		s.ev.Run(x, rs.Times[C])
		qPrev = append([]float64(nil), s.ev.Q...)
		fPrev = append([]float64(nil), s.ev.F...)
		t = rs.Times[C]
		h = rs.NextH
		cuts = rs.Cuts
		xPrev = append([]float64(nil), rs.States[max(C-1, 0)]...)
		hPrev = rs.Hs[C]
		startStep = C + 1
	} else {
		var dcStart time.Time
		if ro.on {
			dcStart = time.Now()
		}
		dsp := ro.rec.Start(fsp.ID(), span.DC, 0)
		// One solver for the DC point and the steps: the DC's factors become
		// the first step's hint, not factors to refactor along, so the first
		// step factors as it would from scratch, bit for bit.
		s = newSolver(ckt, opt, &res.Stats)
		dcX, ladder, err := s.dc(opt.TStart)
		if err != nil {
			dsp.End()
			return nil, err
		}
		s.hint, s.fact = s.fact, nil
		dcStats := &res.Stats // the DC's work alone, so far
		dsp.Attr("iters", int64(dcStats.NewtonIters))
		dsp.Attr("ladder", boolInt(ladder))
		dsp.End()
		if ro.on {
			d := time.Since(dcStart)
			ro.steps.Inc()
			ro.newton.Add(float64(dcStats.NewtonIters))
			ro.facts.Add(float64(dcStats.Factorizations + dcStats.Refactorizations))
			ro.reuses.Add(float64(dcStats.FactorReuses))
			ro.fill.Set(float64(dcStats.FillNNZ))
			ro.stepSec.Observe(d.Seconds())
			ro.simTime.Set(opt.TStart)
		}
		x = dcX

		// Accept the DC point as step 0 and hand it to the capture hooks.
		s.ev.Run(x, opt.TStart)
		record(opt.TStart, 0, x)
		if capturing {
			s0 := ro.rec.Start(fsp.ID(), span.Step, 0)
			ro.rec.SetScope(s0.ID())
			err := capture(0, opt.TStart)
			ro.rec.SetScope(0)
			s0.End()
			if err != nil {
				return nil, fmt.Errorf("transient: capture step 0: %w", err)
			}
		}
		if opt.AfterStep != nil {
			if err := opt.AfterStep(0, opt.TStart, 0, opt.TStep, 0, x); err != nil {
				return res, fmt.Errorf("transient: after step 0: %w", err)
			}
		}
		qPrev = append([]float64(nil), s.ev.Q...)
		// The trapezoidal residual needs the previous step's static currents.
		fPrev = append([]float64(nil), s.ev.F...)
		t = opt.TStart
		h = opt.TStep
		xPrev = append([]float64(nil), x...)
		startStep = 1
	}

	xTrial := make([]float64, ckt.N)
	minStep, maxStep := opt.TStep/128, 8*opt.TStep // the adaptive step's bounds
	for step := startStep; t < opt.TStop-1e-12*opt.TStop; {
		if opt.Ctx != nil {
			if cerr := opt.Ctx.Err(); cerr != nil {
				return res, fmt.Errorf("transient: canceled at t=%g after %d accepted steps: %w: %w",
					t, res.Stats.StepsAccepted, ErrInterrupted, cerr)
			}
		}
		if t+h > opt.TStop {
			h = opt.TStop - t
		}
		tNext := t + h
		invH := 1 / h
		copy(xTrial, x)
		itersBefore := res.Stats.NewtonIters
		factsBefore := res.Stats.Factorizations + res.Stats.Refactorizations
		reusesBefore := res.Stats.FactorReuses
		var attemptStart time.Time
		if ro.on {
			attemptStart = time.Now()
		}
		if opt.FreshFactorPerStep && s.fact != nil {
			s.hint, s.fact = s.fact, nil
		}
		ssp := ro.rec.Start(fsp.ID(), span.Step, step)
		ssp.Attr("t_ps", int64(math.Round(tNext*1e12)))
		ro.rec.SetScope(ssp.ID())
		// reject closes the span of an attempt that will not be accepted and
		// books what it cost: the metrics count every attempt, as Stats does.
		reject := func(reason int64) {
			ro.rec.SetScope(0)
			ssp.Attr("cut", reason)
			ssp.End()
			res.Stats.StepsCut++
			if ro.on {
				ro.cuts.Inc()
				ro.newton.Add(float64(res.Stats.NewtonIters - itersBefore))
				ro.facts.Add(float64(res.Stats.Factorizations + res.Stats.Refactorizations - factsBefore))
				ro.reuses.Add(float64(res.Stats.FactorReuses - reusesBefore))
			}
		}
		var eval func(xx []float64)
		if trap {
			// (q_i - q_{i-1})/h + (f_i + f_{i-1})/2 = 0.
			eval = func(xx []float64) {
				s.ev.Run(xx, tNext)
				for i := range s.res {
					s.res[i] = 0.5*(s.ev.F[i]+fPrev[i]) + invH*(s.ev.Q[i]-qPrev[i])
				}
				s.ev.BuildJWeighted(s.J, 0.5, invH)
			}
		} else {
			eval = func(xx []float64) {
				s.ev.Run(xx, tNext)
				for i := range s.res {
					s.res[i] = s.ev.F[i] + invH*(s.ev.Q[i]-qPrev[i])
				}
				s.ev.BuildJ(s.J, invH)
			}
		}
		if err := s.newton(xTrial, eval); err != nil {
			reject(cutNewton)
			cuts++
			if cuts > maxCuts {
				return nil, fmt.Errorf("transient: step at t=%g failed after %d cuts: %w", t, cuts, err)
			}
			h /= 2
			continue
		}
		grow := false
		if opt.Adaptive && hPrev > 0 {
			// Forward-Euler predictor from the last accepted slope; the
			// gap to the backward-Euler corrector estimates the LTE.
			worst := 0.0
			for i := range xTrial {
				pred := x[i] + h*(x[i]-xPrev[i])/hPrev
				lim := lteTol * (opt.AbsTol + opt.RelTol*math.Abs(xTrial[i]))
				if e := math.Abs(xTrial[i]-pred) / lim; e > worst {
					worst = e
				}
			}
			if worst > 1 && h > minStep {
				reject(cutLTE)
				h = math.Max(h/2, minStep)
				continue
			}
			grow = worst < 0.1
		}
		copy(xPrev, x)
		hPrev = h
		copy(x, xTrial)
		// Re-evaluate at the converged state so the captured G and C are
		// clean (the last Newton evaluation was at the pre-update iterate).
		s.ev.Run(x, tNext)
		record(tNext, h, x)
		res.Stats.StepsAccepted++
		if ro.on {
			d := time.Since(attemptStart)
			iters := res.Stats.NewtonIters - itersBefore
			ro.steps.Inc()
			ro.newton.Add(float64(iters))
			ro.facts.Add(float64(res.Stats.Factorizations + res.Stats.Refactorizations - factsBefore))
			ro.reuses.Add(float64(res.Stats.FactorReuses - reusesBefore))
			ro.fill.Set(float64(res.Stats.FillNNZ))
			ro.stepSec.Observe(d.Seconds())
			ro.simTime.Set(tNext)
		}
		if capturing {
			if err := capture(step, tNext); err != nil {
				ssp.End()
				return nil, fmt.Errorf("transient: capture step %d: %w", step, err)
			}
		}
		ro.rec.SetScope(0)
		ssp.Attr("iters", int64(res.Stats.NewtonIters-itersBefore))
		ssp.End()
		copy(qPrev, s.ev.Q)
		copy(fPrev, s.ev.F)
		t = tNext
		accepted := step
		step++
		if opt.Adaptive {
			cuts = 0
			if grow {
				h = math.Min(h*1.5, maxStep)
			}
		} else if cuts > 0 && h < opt.TStep {
			// Recover the base step after successful cuts.
			h = math.Min(h*2, opt.TStep)
		} else {
			h = opt.TStep
			cuts = 0
		}
		if opt.AfterStep != nil {
			// hPrev still holds the step size just taken; h and cuts now
			// carry what the next iteration will start from.
			if err := opt.AfterStep(accepted, t, hPrev, h, cuts, x); err != nil {
				return res, fmt.Errorf("transient: after step %d: %w", accepted, err)
			}
		}
	}
	fsp.Attr("steps", int64(res.Stats.StepsAccepted))
	if last != nil {
		*last = s.fact
	}
	return res, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
