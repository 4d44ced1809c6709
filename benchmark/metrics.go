package main

import (
	"math"
	"sort"
)

// metric names one reported number and its unit. The two tables below are
// what the program emits; BENCHMARK.json declares the same names and units
// plus direction and regression bound (main_test.go keeps them in step).
type metric struct{ Name, Unit string }

// endToEnd is reported by the timed (tracing off) run of each workload and
// gated by the bounds in BENCHMARK.json.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"store_peak_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by the traced run of each workload, named
// <module>.<metric>. None is gated.
var perLayer = []metric{
	// The headline time, ungated because the recording host cannot hold it
	// steady (README.md, "Noise"): wall time of one warm masc.Simulate.
	{"masc.run_s", "s"},
	// Boundary spans recorded by the benchmark around its own calls.
	{"trace.wall_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_s", "s"},
	{"transient.forward_s", "s"},
	{"transient.self_s", "s"},
	{"jactensor.put_s", "s"},
	{"jactensor.put_count", "count"},
	{"jactensor.end_forward_s", "s"},
	{"adjoint.reverse_s", "s"},
	{"adjoint.self_s", "s"},
	{"jactensor.fetch_s", "s"},
	{"jactensor.fetch_count", "count"},
	{"jactensor.release_s", "s"},
	// Counts read from the public result structs of one facade run.
	{"transient.steps", "count"},
	{"transient.newton_iters", "count"},
	{"transient.factorizations", "count"},
	{"transient.refactorizations", "count"},
	{"transient.steps_cut", "count"},
	{"jactensor.raw_mb", "MB"},
	{"jactensor.stored_mb", "MB"},
	{"jactensor.compress_s", "s"},
	{"jactensor.decompress_s", "s"},
	{"jactensor.stall_s", "s"},
	{"jactensor.io_s", "s"},
	{"jactensor.anchor_mb", "MB"},
	{"tiersched.demotions", "count"},
	{"tiersched.promotions", "count"},
	{"tiersched.recomputes", "count"},
	{"tiersched.disk_steps", "count"},
	{"adjoint.fetch_wait_s", "s"},
	{"adjoint.factor_solve_s", "s"},
	{"adjoint.param_eval_s", "s"},
	{"adjoint.degraded_steps", "count"},
	{"adjoint.windows_ran", "count"},
	{"adjoint.window_sweep_max_s", "s"},
	{"adjoint.window_sweep_min_s", "s"},
	// Kernel replay: each layer's public kernel called standalone.
	{"circuit.eval_us", "us"},
	{"circuit.paramsens_us", "us"},
	{"lu.factor_ms", "ms"},
	{"lu.refactor_us", "us"},
	{"lu.solve_us", "us"},
	{"lu.solvet_multi_us", "us"},
	{"lu.fill_nnz", "count"},
	{"masczip.compress_mbps", "MB/s"},
	{"masczip.decompress_mbps", "MB/s"},
	{"masczip.cr", "ratio"},
	{"workload.repeat_jacobian_frac", "frac"},
	{"lu.est_share", "frac"},
	{"circuit.est_share", "frac"},
	{"masczip.est_share", "frac"},
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fastest(v []float64) float64 {
	lo := math.NaN()
	for _, x := range v {
		if !(x >= lo) {
			lo = x
		}
	}
	return lo
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that is
// the rule the acceptance check applies to run-to-run spread. Fewer than two
// samples have no spread: both quartiles are the sample.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
