package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// declaration is the part of BENCHMARK.json -compare needs.
type declaration struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

func readJSON(path string, v interface{}) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// ratio with its base, and a verdict against the metric's bound:
//
//	UNRESOLVED  either side's interquartile spread is wider than the bound,
//	            so the medians cannot tell a regression from noise;
//	WORSE       b's median is worse than a's by more than the bound;
//	PASS        otherwise.
//
// masc.run_s, which has no bound, gets a row with the same numbers and no
// verdict. It reports whether any row is WORSE.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	var decl declaration
	var a, b resultsFile
	if err := readJSON(specPath, &decl); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%d runs, seed %d)\nb = %s (%d runs, seed %d)\n\n", aPath, a.Runs, a.Seed, bPath, b.Runs, b.Seed)
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %-5s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "unit", "b/a", "spread_a", "spread_b", "bound", "verdict")
	// row prints one line; bound < 0 means the metric is not gated.
	row := func(workload, name, unit string, higherBetter bool, bound float64, va, vb *e2eValue) error {
		if va == nil || vb == nil {
			return fmt.Errorf("%s %s is missing from a results file", workload, name)
		}
		ratio := vb.Value / va.Value
		change := ratio - 1 // positive = worse
		if higherBetter {
			change = -change
		}
		sa, sb := (va.Q3-va.Q1)/va.Value, (vb.Q3-vb.Q1)/vb.Value
		boundCol, verdict := fmt.Sprintf("%.0f%%", 100*bound), "PASS"
		switch {
		case bound < 0:
			boundCol, verdict = "-", "not gated"
		case sa > bound || sb > bound:
			verdict = "UNRESOLVED"
		case change > bound:
			verdict = "WORSE"
			worse = true
		}
		fmt.Fprintf(w, "%-13s %-14s %12.6g %12.6g %-5s %7.4fx %7.2f%% %7.2f%% %6s  %s\n",
			workload, name, va.Value, vb.Value, unit, ratio, 100*sa, 100*sb, boundCol, verdict)
		return nil
	}
	for _, wl := range decl.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a results file", wl.Name)
		}
		if err := row(wl.Name, "masc.run_s", "s", false, -1, wa.RunS, wb.RunS); err != nil {
			return false, err
		}
		for _, m := range decl.EndToEnd {
			if err := row(wl.Name, m.Name, m.Unit, m.Better == "higher", m.Bound, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]); err != nil {
				return false, err
			}
		}
	}
	fmt.Fprintln(w, "\nb/a is b's median over a's median (a is the base); spread is (Q3-Q1)/median of each side's samples.")
	return worse, nil
}
