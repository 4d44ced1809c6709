package verify

import (
	"fmt"
	"math"
	"math/rand"

	"masc"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// Options configures a verification run.
type Options struct {
	// AdjointWorkers is passed through to SimOptions.AdjointWorkers for
	// the chaos gauntlet's runs: W > 1 exercises the fault scenarios with
	// dF/dp sharded across W workers beside the fetcher goroutine that runs
	// the degradation ladder (which must still finish bit-identical to the
	// fault-free baseline).
	AdjointWorkers int
	// MemBudgetBytes, when > 0, overrides the budget of the budgeted chaos
	// and crash scenarios and of VerifyCase's budgeted run (masc-verify
	// -mem-budget), which otherwise keep about half of each case's chain
	// (splitBudget). Scenarios without a budget (plain memory/disk/masc
	// runs) are unaffected, so the fault surface of the unbudgeted stores
	// stays covered. The fault-free baseline shares the same budget, keeping
	// the bit-compare meaningful.
	MemBudgetBytes int64
	// FDChecks bounds how many parameters per case are cross-checked
	// against central finite differences; 0 disables the FD layer.
	FDChecks int
	// FDTol is the finite-difference relative tolerance (default 1e-6).
	FDTol float64
	// DirectTol is the adjoint-vs-direct relative tolerance (default 1e-4).
	// This layer compares two exact derivatives of the same discrete
	// system, but both pass through LU solves of J = G + C/h, so the
	// achievable agreement is cond(J)·eps — on stiff RLC draws that can
	// legitimately reach ~1e-6. Exponential-device saturation currents are
	// worse still: ∂f/∂Is ~ e^{v/vt} can exceed 1e11, and both methods
	// accumulate (then cancel) terms of that magnitude, leaving relative
	// noise of order eps·e^{v/vt} ≈ 1e-5 in whichever method cancels less
	// cleanly. The default sits one decade above the worst of those.
	DirectTol float64
	// Logf, when non-nil, receives per-case progress lines.
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.FDTol == 0 {
		o.FDTol = 1e-6
	}
	if o.DirectTol == 0 {
		o.DirectTol = 1e-4
	}
	return o
}

// CaseReport is the outcome of one case. Failures lists every check that
// did not hold; an empty list means the case passed.
type CaseReport struct {
	Case         *Case
	Steps        int
	Unknowns     int
	Params       int
	FDChecked    int
	FDSkipped    int
	MaxFDErr     float64
	MaxDirectErr float64
	Failures     []string
}

// OK reports whether every check passed.
func (r *CaseReport) OK() bool { return len(r.Failures) == 0 }

func (r *CaseReport) failf(format string, args ...interface{}) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// relErr is the scaled relative discrepancy between two sensitivities:
// the difference over max(|a|, |b|, scale). The scale floor keeps params
// whose sensitivity is many orders below the objective's dominant one from
// failing on numerical noise.
func relErr(a, b, scale float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), scale)
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// objScales returns, per objective, 1e-3 × the largest |dO/dp| — the noise
// floor used by relErr.
func objScales(dodp [][]float64) []float64 {
	out := make([]float64, len(dodp))
	for o, row := range dodp {
		m := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		out[o] = m * 1e-3
	}
	return out
}

// paramScales returns, per parameter, 1e-3 × the largest |dO/dp| across
// objectives. Roundoff in a sensitivity solve is proportional to the largest
// intermediate the parameter's forward state (or adjoint accumulation)
// carries, not to the final entry: a BJT with Is = 1e-16 produces per-state
// sensitivities of order 1e9, so an entry whose true value is ~0 (e.g. a
// source-pinned node) legitimately reads as eps × that column magnitude.
func paramScales(dodp [][]float64) []float64 {
	if len(dodp) == 0 {
		return nil
	}
	out := make([]float64, len(dodp[0]))
	for _, row := range dodp {
		for k, v := range row {
			if a := math.Abs(v) * 1e-3; a > out[k] {
				out[k] = a
			}
		}
	}
	return out
}

// objNoiseScale returns the magnitude whose floating-point granularity bounds
// how precisely an objective can be evaluated from a solved trajectory. State
// noise is absolute-scaled (LU roundoff and Newton tolerance are proportional
// to the largest state in the system, not the probe node's), so an objective
// whose value sits far below Weight · max|x| cannot be resolved better than
// ulps of that product — even when |O| itself is microscopic, e.g. a Step
// objective anchored inside a pulse source's delay.
func objNoiseScale(tr *masc.TransientResult, o masc.Objective) float64 {
	xmax := 0.0
	for _, x := range tr.States {
		for _, v := range x {
			if a := math.Abs(v); a > xmax {
				xmax = a
			}
		}
	}
	s := math.Abs(o.Weight) * xmax
	if o.Integral {
		s *= tr.Times[tr.Steps()] - tr.Times[0]
	}
	return math.Max(math.Abs(objValue(tr, o)), s)
}

// objValue evaluates an objective directly on a trajectory — the quantity
// the adjoint differentiates, used by the finite-difference layer.
func objValue(tr *masc.TransientResult, o masc.Objective) float64 {
	n := tr.Steps()
	if o.Integral {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += tr.Hs[i] * tr.States[i][o.Node]
		}
		return o.Weight * s
	}
	step := n
	if o.Step > 0 && o.Step <= n {
		step = o.Step
	}
	return o.Weight * tr.States[step][o.Node]
}

// simulate rebuilds the case from scratch and runs the full pipeline under
// one storage configuration.
func simulate(c *Case, storage masc.Storage, async bool, budget int64) (*masc.Run, *Built, error) {
	bt, err := c.Build()
	if err != nil {
		return nil, nil, err
	}
	opt := bt.SimBase
	opt.Storage = storage
	opt.Async = async
	opt.MemBudgetBytes = budget
	run, err := masc.Simulate(bt.Ckt, opt, bt.Objectives, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s storage=%s async=%v budget=%d: %w", c.Name(), storage, async, budget, err)
	}
	return run, bt, nil
}

// splitBudget is the memory budget a budgeted scenario runs c under, and the
// bytes the blobs of c's fault-free unbudgeted MASC chain take: o.MemBudgetBytes
// when set (and no chain run, 0 bytes), else budgetShare of that chain.
func splitBudget(c *Case, o Options, keep float64) (budget, chain int64, err error) {
	if o.MemBudgetBytes > 0 {
		return o.MemBudgetBytes, 0, nil
	}
	run, bt, err := simulate(c, masc.StorageMASC, false, 0)
	if err != nil {
		return 0, 0, err
	}
	return budgetShare(bt.Ckt, run.TensorStats, keep), blobBytes(run.TensorStats), nil
}

// blobBytes is what a MASC chain's blobs take: StoredBytes less the shared
// index, which is counted once and never held in the arena a budget caps.
func blobBytes(st masc.TensorStats) int64 { return st.StoredBytes - st.IndexBytes }

// budgetShare is the memory budget that keeps about the share keep of the
// steps of the chain over ckt whose unbudgeted run reported st: the chain's
// reserve and that share of its blob bytes. A chain with no blob bytes — every
// step a repeat — keeps every step under it.
func budgetShare(ckt *masc.Circuit, st masc.TensorStats, keep float64) int64 {
	return masc.BudgetReserve(ckt) + int64(keep*float64(blobBytes(st)))
}

// compareDOdp bit-compares two sensitivity matrices.
func compareDOdp(r *CaseReport, label string, want, got [][]float64) {
	if len(want) != len(got) {
		r.failf("%s: objective count %d vs %d", label, len(want), len(got))
		return
	}
	for o := range want {
		if len(want[o]) != len(got[o]) {
			r.failf("%s: obj %d param count %d vs %d", label, o, len(want[o]), len(got[o]))
			return
		}
		for k := range want[o] {
			if math.Float64bits(want[o][k]) != math.Float64bits(got[o][k]) {
				r.failf("%s: obj %d param %d: %x vs %x (Δ=%g)", label, o, k,
					math.Float64bits(want[o][k]), math.Float64bits(got[o][k]),
					got[o][k]-want[o][k])
				return
			}
		}
	}
}

// VerifyCase runs the full differential matrix on one case:
//
//  1. the pipeline five ways — dense in-RAM oracle, recompute, and the
//     compressed store sync, async and under a memory budget that keeps
//     about half the chain — with bit-identical sensitivities required
//     across all five and async storing exactly sync's bytes. The Markov
//     selector's counts carry state from blob to blob, so a lost or
//     reordered Put surfaces here as a bit mismatch;
//  2. a store-level sweep over one shared forward run, requiring
//     bit-identical Jacobian fetches from dense, sync and async stores;
//  3. the direct (forward) sensitivity method within DirectTol;
//  4. central finite differences with Richardson extrapolation on a
//     parameter subset within FDTol.
//
// The returned error reports infrastructure failure (the case could not be
// built or the oracle itself did not converge); verification mismatches are
// reported in CaseReport.Failures.
func VerifyCase(c *Case, opt Options) (*CaseReport, error) {
	opt = opt.withDefaults()
	rep := &CaseReport{Case: c}

	dense, bt, err := simulate(c, masc.StorageMemory, false, 0)
	if err != nil {
		return rep, err
	}
	rep.Steps = dense.Tran.Steps()
	rep.Unknowns = bt.Ckt.N
	rep.Params = len(bt.Ckt.Params())

	recomp, _, err := simulate(c, masc.StorageRecompute, false, 0)
	if err != nil {
		rep.failf("recompute run: %v", err)
	} else {
		compareDOdp(rep, "recompute vs dense", dense.Sens.DOdp, recomp.Sens.DOdp)
	}

	sync, _, err := simulate(c, masc.StorageMASC, false, 0)
	if err != nil {
		rep.failf("sync compressed run: %v", err)
	} else {
		compareDOdp(rep, "sync-masc vs dense", dense.Sens.DOdp, sync.Sens.DOdp)
		if sync.TensorStats.Steps != dense.TensorStats.Steps {
			rep.failf("sync store steps %d vs dense %d", sync.TensorStats.Steps, dense.TensorStats.Steps)
		}
	}

	async, _, err := simulate(c, masc.StorageMASC, true, 0)
	if err != nil {
		rep.failf("async compressed run: %v", err)
	} else {
		compareDOdp(rep, "async-masc vs dense", dense.Sens.DOdp, async.Sens.DOdp)
		if sync != nil {
			if async.TensorStats.Steps != sync.TensorStats.Steps {
				rep.failf("async store steps %d vs sync %d", async.TensorStats.Steps, sync.TensorStats.Steps)
			}
			if async.TensorStats.StoredBytes != sync.TensorStats.StoredBytes {
				rep.failf("async stored %d bytes vs sync %d: pipelines diverged",
					async.TensorStats.StoredBytes, sync.TensorStats.StoredBytes)
			}
		}
	}

	if sync != nil {
		budget := opt.MemBudgetBytes
		if budget <= 0 {
			budget = budgetShare(bt.Ckt, sync.TensorStats, 0.5)
		}
		if budgeted, _, err := simulate(c, masc.StorageMASC, false, budget); err != nil {
			rep.failf("budgeted compressed run: %v", err)
		} else {
			compareDOdp(rep, "budget-masc vs dense", dense.Sens.DOdp, budgeted.Sens.DOdp)
		}
	}

	verifyStores(c, rep)
	verifyDirect(c, opt, rep, dense)
	if opt.FDChecks > 0 {
		verifyFD(c, opt, rep, dense)
	}
	return rep, nil
}

// verifyStores runs ONE forward integration captured into three stores at
// once — the stored pair (G, C), as the facade keeps it — and, through the
// (J, C) capture adapter, every step's assembled J beside them. It then walks
// the reverse sweep's fetch order asserting bit-identical G and C values from
// every store, and that the J rebuilt from each fetched pair is the J the
// solver's capture saw — the tightest possible statement of "the compressor
// is lossless where it matters, and J need not be stored".
func verifyStores(c *Case, rep *CaseReport) {
	bt, err := c.Build()
	if err != nil {
		rep.failf("store-level rebuild: %v", err)
		return
	}
	ckt := bt.Ckt
	var mo masczip.Options
	mem := jactensor.NewMemStore()
	syncSt := jactensor.NewCompressedStore(
		masczip.New(ckt.GPat, mo), masczip.New(ckt.CPat, mo), ckt.GPat, ckt.CPat)
	asyncSt := jactensor.NewCompressedStoreAsync(
		masczip.New(ckt.GPat, mo), masczip.New(ckt.CPat, mo), ckt.GPat, ckt.CPat, 0)
	stores := []struct {
		name string
		st   jactensor.Store
	}{{"dense", mem}, {"sync", syncSt}, {"async", asyncSt}}
	defer func() {
		for _, s := range stores {
			s.st.Close()
		}
	}()

	topt := bt.SimBase.Transient
	topt.CaptureGC = func(step int, tm float64, x []float64, G, C *sparse.Matrix) error {
		for _, s := range stores {
			if err := s.st.Put(step, G.Val, C.Val); err != nil {
				return fmt.Errorf("capture into %s: %w", s.name, err)
			}
		}
		return nil
	}
	var capturedJ [][]float64
	topt.Capture = func(step int, tm float64, x []float64, J, C *sparse.Matrix) error {
		capturedJ = append(capturedJ, append([]float64(nil), J.Val...))
		return nil
	}
	tr, err := transient.Run(ckt, topt)
	if err != nil {
		rep.failf("store-level forward run: %v", err)
		return
	}
	for _, s := range stores {
		if err := s.st.EndForward(); err != nil {
			rep.failf("%s EndForward: %v", s.name, err)
			return
		}
	}
	n := tr.Steps()
	if len(capturedJ) != n+1 {
		rep.failf("(J, C) capture adapter saw %d steps, the trajectory has %d", len(capturedJ), n+1)
		return
	}
	jBuf := make([]float64, ckt.JPat.NNZ())
	for i := n; i >= 0; i-- {
		var gw, cw []float64
		for k, s := range stores {
			gg, cg, err := s.st.Fetch(i)
			if err != nil {
				rep.failf("%s fetch %d: %v", s.name, i, err)
				return
			}
			if k == 0 {
				gw, cw = gg, cg
			}
			if d := firstBitDiff(gw, gg); d >= 0 {
				rep.failf("%s step %d G[%d]: %x vs %x", s.name, i, d,
					math.Float64bits(gw[d]), math.Float64bits(gg[d]))
				return
			}
			if d := firstBitDiff(cw, cg); d >= 0 {
				rep.failf("%s step %d C[%d]: %x vs %x", s.name, i, d,
					math.Float64bits(cw[d]), math.Float64bits(cg[d]))
				return
			}
			tr.AssembleJ(ckt, i, jBuf, gg, cg)
			if d := firstBitDiff(capturedJ[i], jBuf); d >= 0 {
				rep.failf("%s step %d: J[%d] assembled from the stored pair is %x, the solver captured %x",
					s.name, i, d, math.Float64bits(jBuf[d]), math.Float64bits(capturedJ[i][d]))
				return
			}
		}
		if i < n {
			for _, s := range stores {
				s.st.Release(i + 1)
			}
		}
	}
	for _, s := range stores {
		s.st.Release(0)
	}
	ss, as := syncSt.Stats(), asyncSt.Stats()
	if ss.Steps != as.Steps || ss.RawBytes != as.RawBytes || ss.StoredBytes != as.StoredBytes {
		rep.failf("store stats diverge: sync {steps %d raw %d stored %d} vs async {steps %d raw %d stored %d}",
			ss.Steps, ss.RawBytes, ss.StoredBytes, as.Steps, as.RawBytes, as.StoredBytes)
	}
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// verifyDirect cross-checks the adjoint against the direct (forward)
// sensitivity method — an independent derivation of the same discrete
// derivative, so agreement must be near machine precision.
func verifyDirect(c *Case, opt Options, rep *CaseReport, dense *masc.Run) {
	bt, err := c.Build()
	if err != nil {
		rep.failf("direct rebuild: %v", err)
		return
	}
	tr, err := masc.RunTransient(bt.Ckt, bt.SimBase.Transient)
	if err != nil {
		rep.failf("direct forward run: %v", err)
		return
	}
	dir, err := masc.DirectSensitivities(bt.Ckt, tr, bt.Objectives, nil)
	if err != nil {
		rep.failf("direct method: %v", err)
		return
	}
	scales := objScales(dense.Sens.DOdp)
	pscales := paramScales(dense.Sens.DOdp)
	params := bt.Ckt.Params()
	noise := make([]float64, len(bt.Objectives))
	for o := range bt.Objectives {
		noise[o] = objNoiseScale(dense.Tran, bt.Objectives[o])
	}
	const eps = 2.220446049250313e-16
	for o := range dense.Sens.DOdp {
		for k := range dense.Sens.DOdp[o] {
			ad, dv := dense.Sens.DOdp[o][k], dir.DOdp[o][k]
			// Elasticity gate: if moving the parameter by its own full
			// magnitude changes the objective by less than ~1000 ulps of the
			// objective's noise scale, the entry is below what either method
			// can resolve — a diode with Is = 1e-14 and |dO/dIs| ≈ 0.1 has
			// elasticity 1e-15, pure cancellation residue on both sides. A
			// genuine adjoint bug moves entries with elasticity many orders
			// above this (the pivot-reuse bug sat at ~1e-3 · |O|).
			if math.Max(math.Abs(ad), math.Abs(dv))*math.Abs(params[k].Get()) < 1000*eps*noise[o] {
				continue
			}
			e := relErr(ad, dv, math.Max(scales[o], pscales[k]))
			if e > rep.MaxDirectErr {
				rep.MaxDirectErr = e
			}
			if e > opt.DirectTol {
				rep.failf("direct vs adjoint: obj %d param %d: %g vs %g (rel %.3g > %g)",
					o, k, dense.Sens.DOdp[o][k], dir.DOdp[o][k], e, opt.DirectTol)
				return
			}
		}
	}
}

// verifyFD cross-checks a parameter subset against central finite
// differences. Each difference is computed at steps h and h/2 and Richardson
// extrapolated; parameters whose FD stencil is numerically unreliable (the
// two stencils disagree on 10%, or the perturbed trajectories change their
// step schedule) are skipped rather than failed — FD is the noisy oracle
// here, the adjoint is the precise one.
func verifyFD(c *Case, opt Options, rep *CaseReport, dense *masc.Run) {
	sel := rand.New(rand.NewSource(c.Seed ^ 0x5DEECE66D))
	nPar := rep.Params
	picks := sel.Perm(nPar)
	if len(picks) > opt.FDChecks {
		picks = picks[:opt.FDChecks]
	}
	scales := objScales(dense.Sens.DOdp)

	baseSteps := dense.Tran.Steps()
	baseCuts := dense.Tran.Stats.StepsCut

	runAt := func(k int, val float64) (*masc.TransientResult, []masc.Objective, error) {
		bt, err := c.Build()
		if err != nil {
			return nil, nil, err
		}
		bt.Ckt.Params()[k].Set(val)
		tr, err := masc.RunTransient(bt.Ckt, bt.SimBase.Transient)
		return tr, bt.Objectives, err
	}

	for _, k := range picks {
		bt, err := c.Build()
		if err != nil {
			rep.failf("fd rebuild: %v", err)
			return
		}
		p0 := bt.Ckt.Params()[k].Get()
		if p0 == 0 {
			rep.FDSkipped++
			continue
		}
		objs := bt.Objectives

		// Central difference at two stencil widths.
		stencil := func(h float64) ([]float64, bool) {
			trp, _, errP := runAt(k, p0+h)
			trm, _, errM := runAt(k, p0-h)
			if errP != nil || errM != nil {
				return nil, false
			}
			// A perturbation that changed the step schedule (Newton cuts)
			// differentiates across a discontinuous grid — unusable.
			if trp.Steps() != baseSteps || trm.Steps() != baseSteps ||
				trp.Stats.StepsCut != baseCuts || trm.Stats.StepsCut != baseCuts {
				return nil, false
			}
			den := (p0 + h) - (p0 - h) // exact spacing after rounding
			out := make([]float64, len(objs))
			for o := range objs {
				out[o] = (objValue(trp, objs[o]) - objValue(trm, objs[o])) / den
			}
			return out, true
		}
		h := 1e-4 * math.Abs(p0)
		fdH, ok1 := stencil(h)
		fdH2, ok2 := stencil(h / 2)
		if !ok1 || !ok2 {
			rep.FDSkipped++
			continue
		}
		rep.FDChecked++
		for o := range objs {
			// Richardson: error drops from O(h²) to O(h⁴).
			fd := (4*fdH2[o] - fdH[o]) / 3
			conv := math.Abs(fdH2[o] - fdH[o])
			ad := dense.Sens.DOdp[o][k]
			// Detectability gate: a central difference only resolves a
			// parameter whose induced objective change clears the
			// trajectory's floating-point granularity by a wide margin;
			// below that the "oracle" reads rounding noise, not physics.
			// Gating on max(|ad|,|fd|) means a buggy zero adjoint cannot
			// exempt itself: the large measured fd keeps the check alive.
			const eps = 2.220446049250313e-16
			signal := math.Max(math.Abs(ad), math.Abs(fd)) * 2 * h
			floor := 500 * eps * objNoiseScale(dense.Tran, objs[o]) / opt.FDTol
			if signal < floor {
				continue
			}
			if conv > 0.1*math.Max(math.Abs(fd), scales[o]) {
				// The stencil itself has not converged — noise-dominated.
				continue
			}
			e := relErr(ad, fd, scales[o])
			if e > rep.MaxFDErr {
				rep.MaxFDErr = e
			}
			// Accept either the relative tolerance or agreement within a
			// small multiple of the stencil's own demonstrated convergence
			// error — the Richardson estimate is itself only accurate to
			// O(conv), so demanding |ad−fd| < conv would fail exact adjoints.
			if e > opt.FDTol && math.Abs(ad-fd) > 3*conv {
				rep.failf("fd vs adjoint: obj %d param %d (%s): %g vs %g (rel %.3g > %g, conv %.3g)",
					o, k, bt.Ckt.Params()[k].Name, ad, fd, e, opt.FDTol, conv)
				return
			}
		}
	}
}

// FleetReport aggregates a whole verification fleet.
type FleetReport struct {
	Reports      []*CaseReport
	Failed       int
	FDChecked    int
	FDSkipped    int
	MaxFDErr     float64
	MaxDirectErr float64
}

// OK reports whether the whole fleet passed.
func (f *FleetReport) OK() bool { return f.Failed == 0 }

// Fleet verifies every case, aggregating the outcome. Infrastructure
// errors (oracle build/convergence failures) are recorded as case failures.
func Fleet(cases []*Case, opt Options) *FleetReport {
	opt = opt.withDefaults()
	fr := &FleetReport{}
	for _, c := range cases {
		rep, err := VerifyCase(c, opt)
		if err != nil {
			rep.failf("infrastructure: %v", err)
		}
		fr.Reports = append(fr.Reports, rep)
		if !rep.OK() {
			fr.Failed++
		}
		fr.FDChecked += rep.FDChecked
		fr.FDSkipped += rep.FDSkipped
		if rep.MaxFDErr > fr.MaxFDErr {
			fr.MaxFDErr = rep.MaxFDErr
		}
		if rep.MaxDirectErr > fr.MaxDirectErr {
			fr.MaxDirectErr = rep.MaxDirectErr
		}
		if opt.Logf != nil {
			status := "ok"
			if !rep.OK() {
				status = "FAIL: " + rep.Failures[0]
			}
			opt.Logf("%-22s N=%-3d steps=%-3d params=%-3d fd=%d/%d dirErr=%.2e fdErr=%.2e %s",
				c.Name(), rep.Unknowns, rep.Steps, rep.Params,
				rep.FDChecked, rep.FDChecked+rep.FDSkipped,
				rep.MaxDirectErr, rep.MaxFDErr, status)
		}
	}
	return fr
}
