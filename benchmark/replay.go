package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"masc"
	"masc/internal/circuit"
	"masc/internal/compress/masczip"
	"masc/internal/device"
	"masc/internal/lu"
	"masc/internal/sparse"
)

// replay calls each layer's public kernel standalone on the Jacobians of the
// run's own trajectory and reports per-call medians, plus the share of the
// run each layer could account for at most (calls × unit cost ÷ run time).
// Jacobians are re-derived from the trajectory exactly as
// adjoint.RecomputeSource does, so no raw tensor has to be held.
//
// Every k-th step is sampled, k chosen from the cost of a probe sample so the
// phase fits its time box. Each sample needs steps i and i+1: the store
// compresses M_i against M_{i+1}, and the pair also says whether the
// Jacobian repeated.
func replay(in *inputs, run *masc.Run, box time.Duration, res *childResult) error {
	ckt, tran := in.ds.Ckt, run.Tran
	n := tran.Steps()
	ev := circuit.NewEval(ckt)
	jCur, jNext := sparse.NewMatrix(ckt.JPat), sparse.NewMatrix(ckt.JPat)
	cNext := make([]float64, ckt.CPat.NNZ())
	acc := device.NewSensAccum(ckt.N)
	jc, cc := masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{})
	var jBlob, cBlob []byte
	jBack, cBack := make([]float64, ckt.JPat.NNZ()), make([]float64, ckt.CPat.NNZ())
	rhs := make([]float64, ckt.N)
	multi := make([][]float64, len(in.objectives))
	for o := range multi {
		multi[o] = make([]float64, ckt.N)
	}
	gmin := in.ds.Tran.Gmin
	if gmin == 0 {
		gmin = 1e-12 // the transient default the captured step-0 Jacobian carries
	}

	// evalAt is the forward pass's device evaluation + Jacobian stamping
	// for step i's converged state.
	evalAt := func(i int, j *sparse.Matrix) {
		ev.Run(tran.States[i], tran.Times[i])
		if i == 0 {
			ev.BuildJ(j, 0)
			ckt.AddGmin(j, gmin)
		} else {
			ev.BuildJ(j, 1/tran.Hs[i])
		}
	}

	// got is everything the samples accumulate; the probe sample's share is
	// thrown away by resetting it.
	var got replayTally
	var fact *lu.LU
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }

	sample := func(i int) error {
		evalAt(i+1, jNext)
		copy(cNext, ev.C.Val)
		t0 := time.Now()
		evalAt(i, jCur)
		got.evalUS = append(got.evalUS, us(t0))
		cCur := ev.C.Val

		got.pairs++
		if bitsEqual(jCur.Val, jNext.Val) {
			got.repeats++
		}

		t0 = time.Now()
		for _, p := range in.params {
			acc.Reset()
			ev.ParamSens(p, tran.States[i], tran.Times[i], acc)
		}
		got.paramUS = append(got.paramUS, us(t0))

		// Refactor along the recorded pivots like both sweeps do; when the
		// pivots no longer suit this Jacobian (the DC point versus a
		// transient step), pick new ones as they would.
		refactored := false
		if fact != nil {
			t0 = time.Now()
			err := fact.Refactor(jCur)
			d := us(t0)
			switch {
			case err == nil:
				got.refactorUS = append(got.refactorUS, d)
				refactored = true
			case !errors.Is(err, lu.ErrPivotDegraded):
				return fmt.Errorf("refactor step %d: %w", i, err)
			}
		}
		if !refactored {
			for r := 0; r < 5; r++ {
				t0 = time.Now()
				f, err := lu.Factor(jCur, lu.Options{ColPerm: ckt.JPerm()})
				if err != nil {
					return fmt.Errorf("factor step %d: %w", i, err)
				}
				got.factorMS = append(got.factorMS, us(t0)/1e3)
				fact = f
			}
		}
		copy(rhs, ev.F)
		t0 = time.Now()
		fact.Solve(rhs)
		got.solveUS = append(got.solveUS, us(t0))
		for o := range multi {
			copy(multi[o], ev.F)
		}
		t0 = time.Now()
		fact.SolveTMulti(multi)
		got.solveTUS = append(got.solveTUS, us(t0))

		// The store's per-step codec work: M_i against M_{i+1}, J then C,
		// and the inverse, verified bit for bit.
		raw := 8 * (len(jCur.Val) + len(cCur))
		t0 = time.Now()
		jBlob = jc.Compress(jBlob[:0], jCur.Val, jNext.Val)
		cBlob = cc.Compress(cBlob[:0], cCur, cNext)
		got.compMBps = append(got.compMBps, float64(raw)/us(t0))
		t0 = time.Now()
		errJ := jc.Decompress(jBack, jBlob, jNext.Val)
		errC := cc.Decompress(cBack, cBlob, cNext)
		got.decompMBps = append(got.decompMBps, float64(raw)/us(t0))
		got.rawBytes += raw
		got.storedBytes += len(jBlob) + len(cBlob)
		res.Attempted++
		switch {
		case errJ != nil || errC != nil:
			res.fail("masczip round trip step %d: %v %v", i, errJ, errC)
		case !bitsEqual(jBack, jCur.Val) || !bitsEqual(cBack, cCur):
			res.fail("masczip round trip step %d: decoded values differ", i)
		}
		return nil
	}

	// Probe one mid-run sample to price the rest; its timings are dropped
	// (first call into cold code).
	t0 := time.Now()
	if err := sample(n / 2); err != nil {
		return err
	}
	cost := time.Since(t0)
	got, fact = replayTally{}, nil
	k := int(math.Ceil(float64(n) * float64(cost) / float64(box+1)))
	if k > n/4 {
		k = n / 4 // a tiny box still gets a few samples
	}
	if k < 1 {
		k = 1
	}
	for i := 0; i < n; i += k {
		if err := sample(i); err != nil {
			return err
		}
	}
	if len(got.refactorUS) == 0 {
		return fmt.Errorf("no step could be refactored along recorded pivots")
	}

	m := res.Metrics
	m["circuit.eval_us"] = median(got.evalUS)
	m["circuit.paramsens_us"] = median(got.paramUS)
	m["lu.factor_ms"] = median(got.factorMS)
	m["lu.refactor_us"] = median(got.refactorUS)
	m["lu.solve_us"] = median(got.solveUS)
	m["lu.solvet_multi_us"] = median(got.solveTUS)
	m["lu.fill_nnz"] = float64(fact.LNNZ() + fact.UNNZ())
	m["masczip.compress_mbps"] = median(got.compMBps) // bytes/µs = MB/s
	m["masczip.decompress_mbps"] = median(got.decompMBps)
	m["masczip.cr"] = float64(got.rawBytes) / float64(got.storedBytes)
	m["workload.repeat_jacobian_frac"] = float64(got.repeats) / float64(got.pairs)

	// Upper bounds on each layer's share of one run: the calls the program
	// reported times the standalone unit cost, over the untraced run time.
	// The reverse sweep refactors and solves once per step (0..n); every
	// Newton iteration evaluates the devices and solves once; a deliberately
	// dropped step costs one more evaluation.
	base := m["masc.run_s"]
	steps := float64(n + 1)
	luSec := m["transient.factorizations"]*m["lu.factor_ms"]/1e3 +
		(m["transient.refactorizations"]+steps)*m["lu.refactor_us"]/1e6 +
		m["transient.newton_iters"]*m["lu.solve_us"]/1e6 +
		steps*m["lu.solvet_multi_us"]/1e6
	cktSec := (m["transient.newton_iters"]+m["tiersched.recomputes"])*m["circuit.eval_us"]/1e6 +
		steps*m["circuit.paramsens_us"]/1e6
	zipSec := m["jactensor.raw_mb"]/m["masczip.compress_mbps"] + m["jactensor.raw_mb"]/m["masczip.decompress_mbps"]
	m["lu.est_share"] = luSec / base
	m["circuit.est_share"] = cktSec / base
	m["masczip.est_share"] = zipSec / base
	return nil
}

// replayTally is what the replay's samples accumulate.
type replayTally struct {
	evalUS, paramUS, factorMS, refactorUS, solveUS, solveTUS, compMBps, decompMBps []float64

	rawBytes, storedBytes, pairs, repeats int
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
