package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// AdjointRow is one (dataset, configuration) measurement of the reverse
// sweep: a worker count, whether the blocked multi-RHS kernel was used, the
// wall-clock of the sweep, and its speedup over the serial single-RHS
// baseline (workers=1, one triangular solve per objective — the engine
// before this change).
type AdjointRow struct {
	Dataset  string
	Unknowns int
	Steps    int
	Objs     int
	Params   int
	Workers  int
	MultiRHS bool
	Sec      float64
	Speedup  float64
}

// retainAll wraps a JacobianSource and ignores Release, so one captured
// tensor can be swept once per configuration.
type retainAll struct{ adjoint.JacobianSource }

func (retainAll) Release(int) {}

// RunAdjoint measures the parallel adjoint engine: for each dataset it
// captures one forward trajectory into a raw memory store, then sweeps it
// with the serial single-RHS baseline, the blocked multi-RHS kernel at one
// worker, and the full engine across the workersList sweep. Every
// configuration's sensitivities are checked BIT-IDENTICAL to the baseline —
// the engine trades nothing for the speedup.
func RunAdjoint(names []string, scale float64, workersList []int) ([]AdjointRow, error) {
	if names == nil {
		// CHIP_08 is the many-objective end of Table 1 (40 objectives, 110
		// parameters) — the workload class the multi-RHS kernel targets.
		names = []string{"add20", "CHIP_08"}
	}
	if workersList == nil {
		workersList = []int{1, 2, 4}
	}
	var rows []AdjointRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		store := jactensor.NewMemStore()
		tr, err := ds.RunForward(store)
		if err != nil {
			return nil, err
		}
		src := retainAll{store}

		// Best-of-3: small scales finish a sweep in milliseconds, where a
		// single sample is mostly scheduler noise.
		sweep := func(workers int, single bool) (*adjoint.Result, float64, error) {
			var best float64
			var res *adjoint.Result
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				r, err := adjoint.Sensitivities(ds.Ckt, tr, src, ds.Objectives,
					adjoint.Options{Params: ds.Params, StoredGC: true, Workers: workers, SingleRHS: single})
				if err != nil {
					return nil, 0, err
				}
				if sec := time.Since(start).Seconds(); rep == 0 || sec < best {
					best, res = sec, r
				}
			}
			return res, best, nil
		}

		base, baseSec, err := sweep(1, true)
		if err != nil {
			return nil, fmt.Errorf("bench adjoint %s baseline: %w", name, err)
		}
		row := func(workers int, multi bool, sec float64) AdjointRow {
			return AdjointRow{
				Dataset: name, Unknowns: ds.Ckt.N, Steps: tr.Steps(),
				Objs: len(ds.Objectives), Params: len(ds.Params),
				Workers: workers, MultiRHS: multi, Sec: sec, Speedup: baseSec / sec,
			}
		}
		rows = append(rows, row(1, false, baseSec))

		for _, w := range workersList {
			res, sec, err := sweep(w, false)
			if err != nil {
				return nil, fmt.Errorf("bench adjoint %s workers=%d: %w", name, w, err)
			}
			for o := range base.DOdp {
				for k := range base.DOdp[o] {
					if math.Float64bits(base.DOdp[o][k]) != math.Float64bits(res.DOdp[o][k]) {
						return nil, fmt.Errorf("bench adjoint %s workers=%d: obj %d param %d diverges: %g vs %g",
							name, w, o, k, res.DOdp[o][k], base.DOdp[o][k])
					}
				}
			}
			rows = append(rows, row(w, true, sec))
		}
		store.Close()
	}
	return rows, nil
}

// FormatAdjoint renders the reverse-sweep scaling study.
func FormatAdjoint(rows []AdjointRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(host has %d CPU(s); speedup is vs workers=1 single-RHS; results bit-identical)\n",
		runtime.NumCPU())
	fmt.Fprintf(&b, "%-10s %8s %6s %5s %7s %8s %9s %9s %8s\n",
		"Dataset", "Unknowns", "Steps", "Objs", "Params", "Workers", "MultiRHS", "Sweep(s)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %6d %5d %7d %8d %9v %9.3f %7.2fx\n",
			r.Dataset, r.Unknowns, r.Steps, r.Objs, r.Params,
			r.Workers, r.MultiRHS, r.Sec, r.Speedup)
	}
	return b.String()
}
