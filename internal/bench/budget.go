package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/transient"
	"masc/internal/workload"
)

// BudgetRow is one (dataset, memory budget) measurement of the tiered
// checkpoint/recompute store. Budget 0 is the unlimited baseline (every
// step stays hot, peak resident equals the raw tensor); smaller budgets
// force the scheduler down the ladder — compressed RAM, the disk spill,
// and deliberate drop-and-recompute — while the sweep's sensitivities stay
// bit-identical. Tier step counts are the placement at EndForward (the
// reverse sweep then drains every tier); Slowdown is sweep time vs the
// unlimited baseline, i.e. the time the budget buys its memory with.
type BudgetRow struct {
	Dataset      string
	Unknowns     int
	Steps        int
	Params       int
	BudgetBytes  int64
	PeakResident int64
	RawBytes     int64
	HotSteps     int
	CompSteps    int
	DiskSteps    int
	DropSteps    int
	Demotions    int64
	Recomputes   int64
	SweepSec     float64
	Slowdown     float64
}

// budgetCapture runs one forward pass into a fresh tiered store (wiring the
// solver's per-step cost into the store's recompute model), arms the
// recompute rung, and returns the store with its EndForward tier placement.
func budgetCapture(ds *workload.Dataset, budget int64, disableDisk bool) (*jactensor.TieredStore, *transient.Result, jactensor.Stats, error) {
	ts := jactensor.NewTieredStore(
		masczip.New(ds.Ckt.GPat, masczip.Options{}), masczip.New(ds.Ckt.CPat, masczip.Options{}),
		jactensor.TieredConfig{BudgetBytes: budget, DisableDisk: disableDisk})
	opt := ds.CaptureInto(ts)
	opt.StepCost = func(_ int, d time.Duration) { ts.ObserveStepCost(d) }
	tr, err := transient.Run(ds.Ckt, opt)
	if err != nil {
		ts.Close()
		return nil, nil, jactensor.Stats{}, fmt.Errorf("workload %s: %w", ds.Name, err)
	}
	if err := ts.EndForward(); err != nil {
		ts.Close()
		return nil, nil, jactensor.Stats{}, err
	}
	ts.SetRecompute(adjoint.NewRecomputeSource(ds.Ckt, tr).Pair)
	return ts, tr, ts.Stats(), nil
}

// RunBudget measures the tiered store across a memory-budget ladder: the
// unlimited baseline, then 1/2, 1/4, and 1/8 of the measured all-hot peak,
// and finally a 64 KiB diskless budget that lives almost entirely on the
// recompute rung. Every configuration's sensitivities are checked
// BIT-IDENTICAL to the unlimited baseline. The sweep mutates (drains) the
// store, so each repetition recaptures the forward trajectory; best of 3
// sweeps is reported.
func RunBudget(names []string, scale float64) ([]BudgetRow, error) {
	if names == nil {
		names = []string{"add20", "CHIP_08"}
	}
	var rows []BudgetRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}

		// One measurement per (budget, rep): capture, then timed sweep. The
		// tier placement reported is the best rep's (cost-model decisions
		// depend on measured wall time, so placements may vary per rep; the
		// sensitivities never do).
		measure := func(budget int64, disableDisk bool) (*adjoint.Result, jactensor.Stats, float64, error) {
			var best float64
			var res *adjoint.Result
			var stats jactensor.Stats
			for rep := 0; rep < 3; rep++ {
				ts, tr, st, err := budgetCapture(ds, budget, disableDisk)
				if err != nil {
					return nil, jactensor.Stats{}, 0, err
				}
				start := time.Now()
				r, err := adjoint.Sensitivities(ds.Ckt, tr, ts, ds.Objectives,
					adjoint.Options{Params: ds.Params, StoredGC: true})
				sec := time.Since(start).Seconds()
				// Cumulative counters (demotions, recomputes) include the
				// sweep's promotions; snapshot them before closing.
				st = mergeSweepStats(st, ts.Stats())
				ts.Close()
				if err != nil {
					return nil, jactensor.Stats{}, 0, err
				}
				if rep == 0 || sec < best {
					best, res, stats = sec, r, st
				}
			}
			return res, stats, best, nil
		}

		base, baseStats, baseSec, err := measure(0, false)
		if err != nil {
			return nil, fmt.Errorf("bench budget %s baseline: %w", name, err)
		}
		peak := baseStats.PeakResident

		row := func(budget int64, st jactensor.Stats, sec float64) BudgetRow {
			return BudgetRow{
				Dataset: name, Unknowns: ds.Ckt.N, Steps: st.Steps,
				Params: len(ds.Params), BudgetBytes: budget,
				PeakResident: st.PeakResident, RawBytes: st.RawBytes,
				HotSteps: st.TierHotSteps, CompSteps: st.TierCompressedSteps,
				DiskSteps: st.TierDiskSteps, DropSteps: st.TierDroppedSteps,
				Demotions: st.TierDemotions, Recomputes: st.TierRecomputes,
				SweepSec: sec, Slowdown: sec / baseSec,
			}
		}
		rows = append(rows, row(0, baseStats, baseSec))

		type cfg struct {
			budget      int64
			disableDisk bool
		}
		cfgs := []cfg{{peak / 2, false}, {peak / 4, false}, {peak / 8, false}, {64 << 10, true}}
		for _, c := range cfgs {
			res, st, sec, err := measure(c.budget, c.disableDisk)
			if err != nil {
				return nil, fmt.Errorf("bench budget %s budget=%d: %w", name, c.budget, err)
			}
			for o := range base.DOdp {
				for k := range base.DOdp[o] {
					if math.Float64bits(base.DOdp[o][k]) != math.Float64bits(res.DOdp[o][k]) {
						return nil, fmt.Errorf("bench budget %s budget=%d: obj %d param %d diverges: %g vs %g",
							name, c.budget, o, k, res.DOdp[o][k], base.DOdp[o][k])
					}
				}
			}
			if st.PeakResident > c.budget+6*st.RawBytes/int64(max(st.Steps, 1)) {
				return nil, fmt.Errorf("bench budget %s budget=%d: peak resident %d exceeds budget plus slack",
					name, c.budget, st.PeakResident)
			}
			rows = append(rows, row(c.budget, st, sec))
		}
	}
	return rows, nil
}

// mergeSweepStats combines the EndForward tier placement (forward) with the
// cumulative counters and peak as of the end of the sweep (final).
func mergeSweepStats(forward, final jactensor.Stats) jactensor.Stats {
	forward.PeakResident = final.PeakResident
	forward.TierDemotions = final.TierDemotions
	forward.TierPromotions = final.TierPromotions
	forward.TierRecomputes = final.TierRecomputes
	forward.IOTime = final.IOTime
	forward.DiskRetries = final.DiskRetries
	return forward
}

// FormatBudget renders the memory-budget ladder study.
func FormatBudget(rows []BudgetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(budget 0 = unlimited baseline; tier steps are the placement at EndForward; results bit-identical)\n")
	fmt.Fprintf(&b, "%-10s %8s %6s %10s %10s %5s %5s %5s %5s %7s %7s %9s %9s\n",
		"Dataset", "Unknowns", "Steps", "BudgetKiB", "PeakKiB", "Hot", "Comp", "Disk", "Drop", "Demote", "Recomp", "Sweep(s)", "Slowdown")
	for _, r := range rows {
		budget := "unlim"
		if r.BudgetBytes > 0 {
			budget = fmt.Sprintf("%.1f", float64(r.BudgetBytes)/1024)
		}
		fmt.Fprintf(&b, "%-10s %8d %6d %10s %10.1f %5d %5d %5d %5d %7d %7d %9.3f %8.2fx\n",
			r.Dataset, r.Unknowns, r.Steps, budget, float64(r.PeakResident)/1024,
			r.HotSteps, r.CompSteps, r.DiskSteps, r.DropSteps,
			r.Demotions, r.Recomputes, r.SweepSec, r.Slowdown)
	}
	return b.String()
}
