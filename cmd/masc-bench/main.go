// Command masc-bench regenerates the tables and figures of the MASC paper
// on the laptop-scale workload analogues.
//
//	masc-bench -experiment table3 -scale 1 -workers 8
//	masc-bench -experiment all -scale 0.25
//
// Experiments: table1, fig1, table2, table3, fig5b, fig6, fig7, parallel,
// pipeline, adjoint, windows, budget, memory, ablation, all. Scale 1 is
// the benchmark size (minutes); use smaller scales for a quick look.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"masc/internal/bench"
	"masc/internal/obs"
)

func main() {
	var (
		exp        = flag.String("experiment", "all", "table1|fig1|table2|table3|codec|fig5b|fig6|fig7|parallel|pipeline|adjoint|windows|budget|memory|ablation|journal|all")
		scale      = flag.Float64("scale", 1.0, "workload scale (1 = benchmark size)")
		workers    = flag.Int("workers", runtime.NumCPU(), "parallel compressor workers")
		adjWorkers = flag.Int("adjoint-workers", 0, "adjoint experiment: extra reverse-sweep worker count to measure (0 = just the built-in 1/2/4 sweep)")
		adjWindows = flag.Int("adjoint-windows", 0, "windows experiment: extra window count to measure (0 = just the built-in 2/4/NumCPU sweep)")
		depth      = flag.Int("pipeline-depth", 2, "async pipeline depth for the pipeline experiment")
		diskBps    = flag.Float64("disk-bps", bench.DefaultDiskBps, "simulated disk bandwidth (bytes/s)")
		statsJSON  = flag.String("stats-json", "", "write every experiment's raw rows as one JSON document")
	)
	flag.Parse()
	if err := run(strings.ToLower(*exp), *scale, *workers, *adjWorkers, *adjWindows, *depth, *diskBps, *statsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "masc-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, workers, adjWorkers, adjWindows, depth int, diskBps float64, statsJSON string) error {
	all := exp == "all"
	did := false
	// The manifest mirrors every experiment's raw rows, so a -stats-json
	// snapshot is machine-diffable against a later run.
	man := obs.NewManifest("masc-bench")
	man.Set("experiment", exp).
		Set("scale", scale).
		Set("host_cpus", runtime.NumCPU()).
		Set("workers", workers).
		Set("pipeline_depth", depth).
		Set("disk_bps", diskBps)
	section := func(title string) {
		fmt.Printf("\n==== %s ====\n", title)
		did = true
	}
	if all || exp == "table1" {
		section("Table 1 — transient vs adjoint sensitivity time")
		rows, err := bench.RunTable1(nil, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable1(rows))
		man.Section("table1", rows)
	}
	if all || exp == "fig1" {
		section("Figure 1 — memory cost of storing Jacobians")
		rows, err := bench.RunFig1(nil, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig1(rows))
		man.Section("fig1", rows)
	}
	if all || exp == "table2" {
		section("Table 2 — datasets and the gzip reference")
		rows, err := bench.RunTable2(nil, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable2(rows))
		man.Section("table2", rows)
	}
	if all || exp == "table3" {
		section("Table 3 — compression ratio and time by codec")
		cells, err := bench.RunTable3(nil, nil, scale, workers)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable3(cells))
		man.Section("table3", cells)
	}
	if all || exp == "codec" {
		section("Codec throughput — the masczip hot path's smoke benchmark")
		// A small dataset pair and the codecs whose throughput the fused
		// encoder/decoder moves, with the derived MB/s columns.
		cells, err := bench.RunTable3([]string{"add20", "mem_plus"},
			[]string{"masc", "masc+markov", "gzip"}, scale, workers)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable3(cells))
		man.Section("codec", cells)
	}
	if all || exp == "fig5b" || exp == "fig6" {
		section("Figures 5b & 6 — residual and model-selection statistics")
		f5, f6, err := bench.RunFig5b6(nil, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig5b(f5))
		fmt.Println()
		fmt.Print(bench.FormatFig6(f6))
		man.Section("fig5b", f5)
		man.Section("fig6", f6)
	}
	if all || exp == "fig7" {
		section("Figure 7 — end-to-end sensitivity simulation time")
		rows, err := bench.RunFig7(nil, scale, workers, diskBps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig7(rows))
		man.Section("fig7", rows)
	}
	if all || exp == "parallel" {
		section("§6.4 — parallel compressor scaling")
		rows, err := bench.RunParallel("", scale, nil)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatParallel(rows))
		man.Section("parallel", rows)
	}
	if all || exp == "pipeline" {
		section("Pipelined store — async compression overlap")
		rows, err := bench.RunPipeline(nil, scale, workers, depth)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatPipeline(rows))
		man.Section("pipeline", rows)
	}
	if all || exp == "adjoint" {
		section("Parallel adjoint engine — multi-RHS, sharded dF/dp, fetch overlap")
		ws := []int{1, 2, 4}
		if adjWorkers > 0 {
			ws = append(ws, adjWorkers)
		}
		rows, err := bench.RunAdjoint(nil, scale, ws)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatAdjoint(rows))
		man.Section("adjoint", rows)
	}
	if all || exp == "windows" {
		section("Parallel-in-time windowed adjoint — concurrent sweeps over window slices")
		ws := []int{2, 4, runtime.NumCPU()}
		if adjWindows > 1 {
			ws = append(ws, adjWindows)
		}
		rows, err := bench.RunWindows(nil, scale, ws)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatWindows(rows))
		man.Section("windows", rows)
	}
	if all || exp == "budget" {
		section("Tiered store — memory-budget ladder (hot/compressed/disk/recompute)")
		rows, err := bench.RunBudget(nil, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatBudget(rows))
		man.Section("budget", rows)
	}
	if all || exp == "memory" {
		section("Memory footprint by storage strategy (measured)")
		rows, err := bench.RunMemory(nil, scale, workers)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatMemory(rows))
		man.Section("memory", rows)
	}
	if all || exp == "journal" {
		section("Write-ahead run journal — forward-phase overhead by fsync cadence")
		rows, err := bench.RunJournal(nil, scale, nil)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatJournal(rows))
		man.Section("journal", rows)
	}
	if all || exp == "ablation" {
		section("Ablation — MASC design choices")
		rows, err := bench.RunAblation(nil, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatAblation(rows))
		man.Section("ablation", rows)
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if statsJSON != "" {
		if err := man.Write(statsJSON); err != nil {
			return err
		}
		fmt.Printf("\nstats written to %s\n", statsJSON)
	}
	return nil
}
