package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"masc"
)

// childEnv carries a childSpec to a re-exec'd copy of this binary. Each
// phase of a workload runs in a fresh process so that the reference run's
// raw-tensor high-water mark never pollutes the timed run's peak RSS, and so
// that tracing never shares a heap with the numbers it is compared against.
const childEnv = "MASC_BENCH_CHILD"

type childSpec struct {
	Phase    string // "reference", "timed" or "traced"
	Workload string
	Seed     int64
	Seconds  float64 // measuring time box of the timed/traced phase
	ScaleMul float64 // 1 except in the smoke test
	TmpDir   string  // scratch inside the output directory (spill files)
	RefPath  string  // reference dO/dp bit patterns (written by "reference")
	SpanPath string  // span file written by "traced"
}

// childResult is what a phase prints on stdout for the parent, and what the
// parent reports; a run is correct when nothing in it failed.
type childResult struct {
	Attempted  int
	Failed     int
	Errors     []string
	Metrics    map[string]float64
	RunSamples []float64 // timed: seconds of every rep, in order
}

func (r *childResult) fail(format string, a ...interface{}) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
	}
}

// runChild executes one phase and prints its result. A phase that cannot
// run at all (bad spec, build error) exits non-zero without a result.
func runChild(raw string) {
	var cs childSpec
	if err := json.Unmarshal([]byte(raw), &cs); err != nil {
		fatalf("child spec: %v", err)
	}
	w, err := findWorkload(cs.Workload)
	if err != nil {
		fatalf("%v", err)
	}
	res := &childResult{Metrics: map[string]float64{}}
	switch cs.Phase {
	case "reference":
		err = referencePhase(w, &cs)
	case "timed":
		err = timedPhase(w, &cs, res)
	case "traced":
		err = tracedPhase(w, &cs, res)
	default:
		err = fmt.Errorf("unknown phase %q", cs.Phase)
	}
	if err != nil {
		fatalf("%s %s: %v", cs.Workload, cs.Phase, err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatalf("%v", err)
	}
}

// directCheckParams is how many of the selected parameters the reference
// run cross-checks against the direct (forward) sensitivity method.
const directCheckParams = 4

// directTol is internal/verify's default adjoint-vs-direct tolerance,
// relative to the objective's largest |dO/dp|.
const directTol = 1e-4

// directOutlierDiv bounds the share of compared entries that may miss
// directTol: one entry, or one in directOutlierDiv if that is more. Adjoint
// and direct method are transposes of the same linear recurrence, so they
// differ by roundoff only, but on smult20 (regenerative logic transitions)
// that roundoff is amplified with a heavy tail: of 131 seeds, 4 had one
// compared entry (of 4..48) off by 1.5e-4 to 1 of its row scale, none had
// two, and which entry it is depends on the seed's selection. MOS_T7 and
// RC_01 agree to 1e-11 on every seed tried. A wrong adjoint moves every
// entry of every row. Requiring all entries made one smult20 seed in thirty
// fail on correct code; requiring three in four does not, and still catches
// a wrong sweep.
const directOutlierDiv = 4

// referencePhase produces the bit patterns every timed rep must reproduce:
// one serial raw-memory run (no codec, no tiering, no parallelism), itself
// cross-checked against the direct method on a few parameters.
func referencePhase(w spec, cs *childSpec) error {
	in, err := w.build(cs.Seed, cs.ScaleMul, cs.TmpDir)
	if err != nil {
		return err
	}
	run, err := masc.Simulate(in.ds.Ckt, masc.SimOptions{Transient: in.ds.Tran, Storage: masc.StorageMemory},
		in.objectives, in.params)
	if err != nil {
		return err
	}
	if len(run.Sens.DegradedSteps) != 0 {
		return fmt.Errorf("reference run degraded %d steps", len(run.Sens.DegradedSteps))
	}
	// Evenly spaced subset of the selected parameters.
	var sub, at []int
	for i := 0; i < directCheckParams && i < len(in.params); i++ {
		k := i * len(in.params) / directCheckParams
		sub, at = append(sub, in.params[k]), append(at, k)
	}
	dir, err := masc.DirectSensitivities(in.ds.Ckt, run.Tran, in.objectives, sub)
	if err != nil {
		return fmt.Errorf("direct method: %w", err)
	}
	global := 0.0
	for _, row := range run.Sens.DOdp {
		for _, v := range row {
			global = math.Max(global, math.Abs(v))
		}
	}
	if global == 0 || math.IsNaN(global) || math.IsInf(global, 0) {
		return fmt.Errorf("reference sensitivities are degenerate (max |dO/dp| = %g)", global)
	}
	compared, missed, first := 0, 0, ""
	for o, row := range run.Sens.DOdp {
		scale := 0.0
		for _, v := range row {
			scale = math.Max(scale, math.Abs(v))
		}
		// An objective on a node no parameter can move (a supply rail) has
		// only cancellation residue on both sides; there is nothing to
		// compare at a relative tolerance.
		if scale < 1e-12*global {
			continue
		}
		for i, k := range at {
			compared++
			if d := math.Abs(row[k] - dir.DOdp[o][i]); !(d <= directTol*scale) {
				if missed++; first == "" {
					first = fmt.Sprintf("objective %d param %d: %g vs %g (|Δ| %.3g > %g·%.3g)",
						o, in.params[k], row[k], dir.DOdp[o][i], d, directTol, scale)
				}
			}
		}
	}
	if missed > 1 && missed*directOutlierDiv > compared {
		return fmt.Errorf("adjoint vs direct: %d of %d compared entries disagree, the first: %s", missed, compared, first)
	}
	if missed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s reference: %d of %d compared entries off the direct method (tolerated roundoff outlier), the first: %s\n",
			w.Name, missed, compared, first)
	}
	bits := make([][]uint64, len(run.Sens.DOdp))
	for o, row := range run.Sens.DOdp {
		bits[o] = make([]uint64, len(row))
		for k, v := range row {
			bits[o][k] = math.Float64bits(v)
		}
	}
	buf, err := json.Marshal(bits)
	if err != nil {
		return err
	}
	return os.WriteFile(cs.RefPath, buf, 0o644)
}

func loadReference(path string) ([][]uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bits [][]uint64
	if err := json.Unmarshal(buf, &bits); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bits, nil
}

// checkSens is the per-operation correctness gate: dO/dp must match the
// reference bit for bit and no step may have been degraded.
func checkSens(res *childResult, what string, sens *masc.SensitivityResult, ref [][]uint64) {
	res.Attempted++
	if len(sens.DegradedSteps) != 0 {
		res.fail("%s: %d degraded steps", what, len(sens.DegradedSteps))
		return
	}
	if len(sens.DOdp) != len(ref) {
		res.fail("%s: %d objectives, reference has %d", what, len(sens.DOdp), len(ref))
		return
	}
	for o, row := range sens.DOdp {
		if len(row) != len(ref[o]) {
			res.fail("%s: objective %d has %d params, reference %d", what, o, len(row), len(ref[o]))
			return
		}
		for k, v := range row {
			if math.Float64bits(v) != ref[o][k] {
				res.fail("%s: dO/dp[%d][%d] = %x, reference %x", what, o, k, math.Float64bits(v), ref[o][k])
				return
			}
		}
	}
}

const (
	// setupSteps is the length of the cold simulation inside one set-up:
	// long enough to reach every one-time cost (pattern build, ordering,
	// symbolic factorization, DC operating point, codec plans and their first
	// temporal prediction, store construction, first touch of every buffer),
	// short enough that stepping does not hide them: one-time work is 70 %
	// of a 4-step set-up and 35 % of a 16-step one, and a shorter set-up
	// fits more of the host's quiet gaps (see timedPhase).
	setupSteps = 4
	// setupShare of the time box goes to set-ups before every rep, run back
	// to back; the rep uses the last one's circuit. With two reps that is
	// half the box: the gated time is the set-up's, so it gets the samples.
	setupShare = 0.25
	// minReps is the floor under the time box.
	minReps = 2
)

// timedPhase measures the end-to-end metrics with tracing off. Every rep is
// a burst of fresh set-ups (generate the circuit, select the inputs, a cold
// setupSteps-long masc.Simulate) followed by one full masc.Simulate on the
// last one's circuit, which is the checked operation. No rep is thrown away
// as a warm-up: none of the gated metrics is a run time, and the time box has
// to pay for the reference run as well.
func timedPhase(w spec, cs *childSpec, res *childResult) error {
	ref, err := loadReference(cs.RefPath)
	if err != nil {
		return err
	}
	var setups, peaks []float64
	box := time.Duration(cs.Seconds * float64(time.Second))
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < box; rep++ {
		var in *inputs
		burst := time.Now().Add(time.Duration(setupShare * float64(box)))
		for in == nil || time.Now().Before(burst) {
			t0 := time.Now()
			if in, err = w.build(cs.Seed, cs.ScaleMul, cs.TmpDir); err != nil {
				return err
			}
			cold := in.opt
			cold.Transient.TStop = cold.Transient.TStart + setupSteps*cold.Transient.TStep
			if _, err := masc.Simulate(in.ds.Ckt, cold, in.objectives, in.params); err != nil {
				return fmt.Errorf("cold run: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}

		t0 := time.Now()
		run, err := in.simulate()
		d := time.Since(t0).Seconds()
		if err != nil {
			res.Attempted++
			res.fail("rep %d: %v", rep, err)
			if res.Failed >= minReps {
				break // a run that cannot complete will not start completing
			}
			continue
		}
		checkSens(res, fmt.Sprintf("rep %d", rep), run.Sens, ref)
		res.RunSamples = append(res.RunSamples, d)
		peaks = append(peaks, float64(run.TensorStats.PeakResident)/1e6)
	}
	if len(res.RunSamples) == 0 {
		return fmt.Errorf("no rep completed: %v", res.Errors)
	}
	// The host time-slices this VM's cores with its other tenants: identical
	// code runs at full speed or at half, in stretches of 40 ms (median) to
	// 700 ms within any ten seconds, for tens of seconds at a time. That only
	// ever adds time, so the fastest of many back-to-back set-ups is the one
	// that fell inside a quiet stretch; their median follows the host.
	sort.Float64s(setups)
	res.Metrics["setup_s"] = setups[0]
	q1, _ := quartiles(setups)
	res.Metrics["setup_q1_s"] = q1
	res.Metrics["setup_median_s"] = median(setups) // printed beside it, not gated
	res.Metrics["setup_count"] = float64(len(setups))
	res.Metrics["store_peak_mb"] = median(peaks)
	return nil
}
