// Command masc-bench regenerates the tables and figures of the MASC paper
// on the laptop-scale workload analogues.
//
//	masc-bench -experiment table3 -scale 1 -workers 8
//	masc-bench -experiment table3 -datasets add20 -codecs masc,gzip,chimp
//	masc-bench -experiment all -scale 0.25
//
// Experiments: table1, fig1, table2, table3, fig5b, fig6, fig7, parallel,
// ablation, all. Scale 1 is the benchmark size (minutes); use smaller scales
// for a quick look. -datasets runs each experiment on the named circuits
// instead of its own (parallel on the first), -codecs narrows Table 3 to the
// named codecs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"masc/internal/bench"
	"masc/internal/obs"
	"masc/internal/workload"
)

// experiments is the -experiment usage string: every name run accepts.
const experiments = "table1|fig1|table2|table3|fig5b|fig6|fig7|parallel|ablation|all"

func main() {
	var (
		exp       = flag.String("experiment", "all", experiments)
		datasets  = flag.String("datasets", "", "comma-separated datasets (default: each experiment's own): "+strings.Join(datasetNames(), " "))
		codecs    = flag.String("codecs", "", "comma-separated Table 3 codecs (default: all): "+strings.Join(bench.CodecNames(), " "))
		scale     = flag.Float64("scale", 1.0, "workload scale (1 = benchmark size)")
		workers   = flag.Int("workers", 1, "Table 3's compressor workers (row chunks, which move CR; parallel keeps its own list)")
		diskBps   = flag.Float64("disk-bps", bench.DefaultDiskBps, "simulated disk bandwidth (bytes/s)")
		statsJSON = flag.String("stats-json", "", "write every experiment's raw rows as one JSON document")
	)
	flag.Parse()
	if err := run(strings.ToLower(*exp), list(*datasets), list(*codecs), *scale, *workers, *diskBps, *statsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "masc-bench:", err)
		os.Exit(1)
	}
}

// list splits a comma-separated flag value; an empty one is nil, each
// experiment's default.
func list(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// datasetNames is every circuit workload.Build knows, each once.
func datasetNames() []string {
	var out []string
	for _, n := range slices.Concat(workload.Table2Names(), workload.Table1Names(), workload.ExtraNames()) {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// known refuses a name valid does not hold.
func known(what string, names, valid []string) error {
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return fmt.Errorf("unknown %s %q (have %s)", what, n, strings.Join(valid, " "))
		}
	}
	return nil
}

// run runs experiment exp on the named datasets (nil: each experiment's
// own) and, for Table 3, codecs (nil: all). Every name is checked before
// anything is simulated.
func run(exp string, names, codecs []string, scale float64, workers int, diskBps float64, statsJSON string) error {
	if err := known("dataset", names, datasetNames()); err != nil {
		return err
	}
	if err := known("codec", codecs, bench.CodecNames()); err != nil {
		return err
	}
	all := exp == "all"
	did := false
	// The manifest mirrors every experiment's raw rows, so a -stats-json
	// snapshot is machine-diffable against a later run.
	man := obs.NewManifest("masc-bench")
	man.Set("experiment", exp).
		Set("scale", scale).
		Set("host_cpus", runtime.NumCPU()).
		Set("workers", workers).
		Set("disk_bps", diskBps)
	section := func(title string) {
		fmt.Printf("\n==== %s ====\n", title)
		did = true
	}
	if all || exp == "table1" {
		section("Table 1 — transient vs adjoint sensitivity time")
		rows, err := bench.RunTable1(names, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable1(rows))
		man.Section("table1", rows)
	}
	if all || exp == "fig1" {
		section("Figure 1 — memory cost of storing Jacobians")
		rows, err := bench.RunFig1(names, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig1(rows))
		man.Section("fig1", rows)
	}
	if all || exp == "table2" {
		section("Table 2 — datasets and the gzip reference")
		rows, err := bench.RunTable2(names, scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable2(rows))
		man.Section("table2", rows)
	}
	if all || exp == "table3" {
		section("Table 3 — compression ratio and time by codec")
		cells, err := bench.RunTable3(names, codecs, scale, workers)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable3(cells))
		man.Section("table3", cells)
	}
	if all || exp == "fig5b" || exp == "fig6" {
		section("Figures 5b & 6 — residual and model-selection statistics")
		f5, f6, err := bench.RunFig5b6(names, scale)
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
		rows, err := bench.RunFig7(names, scale, diskBps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig7(rows))
		man.Section("fig7", rows)
	}
	if all || exp == "parallel" {
		section("§6.4 — parallel compressor scaling")
		first := ""
		if len(names) > 0 {
			first = names[0]
		}
		rows, err := bench.RunParallel(first, scale, nil)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatParallel(rows))
		man.Section("parallel", rows)
	}
	if all || exp == "ablation" {
		section("Ablation — MASC design choices")
		rows, err := bench.RunAblation(names, scale)
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
