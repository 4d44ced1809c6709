package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// runWorkload re-executes it as a phase.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		runChild(raw)
		return
	}
	os.Exit(m.Run())
}

// fullDeclaration is every key of BENCHMARK.json.
type fullDeclaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at a tiny scale through both the timed and
// the traced path and checks the shape of what comes out: each declared
// metric exactly once with a finite value, the declaration within the
// contract's limits, and a span tree whose self times are non-negative and
// sum to their parents. It asserts nothing about wall-clock values.
func TestSmoke(t *testing.T) {
	var decl fullDeclaration
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	declared := func(kind string, names, units []string, defs []metric) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.Name || units[i] != d.Unit {
				t.Errorf("%s metric %d: declared %s [%s], program has %s [%s]", kind, i, names[i], units[i], d.Name, d.Unit)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	var names, units []string
	for _, m := range decl.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside (0, 0.25]", m.Name)
		}
	}
	declared("end_to_end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range decl.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	declared("per_layer", names, units, perLayer)

	cfg := config{seed: 1, seconds: 0.05, scaleMul: 0.05, out: t.TempDir()}
	for _, dw := range decl.Workloads {
		w, err := findWorkload(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !nameRE.MatchString(dw.Name) || dw.Why == "" || len(dw.Why) > 200 || strings.Contains(dw.Why, "\n") {
			t.Errorf("workload %q: bad name or why", dw.Name)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			r, err := runWorkload(w, cfg, cfg.seed, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d %v", w.Name, traced, r.Attempted, r.Failed, r.Errors)
			}
			var line bytes.Buffer
			if err := r.printContractLine(&line, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var got struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatalf("%s traced=%v: result line: %v", w.Name, traced, err)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the result line, want %d", w.Name, traced, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing, mis-united or not finite", w.Name, traced, d.Name)
				}
			}
			if traced {
				// The window sweeps of the pipelined workload run side by
				// side; everywhere else siblings run one after another.
				checkSpans(t, filepath.Join(cfg.out, w.Name+".spans.jsonl"), r.Metrics, w.Name != "pipelined")
			}
		}
	}
}

// checkSpans verifies the span file against the ledger built from it.
func checkSpans(t *testing.T, path string, m map[string]float64, serial bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Name != "run" || spans[0].Parent != 0 {
		t.Fatalf("%s: no root run span", path)
	}
	children := map[int]int64{} // parent → summed child duration
	for _, s := range spans {
		if s.ID < 1 || s.ID > len(spans) || s.End < s.Start {
			t.Fatalf("%s: span %+v is malformed", path, s)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.End - s.Start
	}
	if serial {
		for id, sum := range children {
			if p := spans[id-1]; sum > p.End-p.Start {
				t.Errorf("%s: children of span %d (%s) cover %d ns of its %d ns", path, id, p.Name, sum, p.End-p.Start)
			}
		}
	}
	run := float64(spans[0].End-spans[0].Start) / 1e9
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: %s = %.9f, parts sum to %.9f", path, what, got, want)
		}
	}
	near("run span", run, m["transient.forward_s"]+m["jactensor.end_forward_s"]+m["adjoint.reverse_s"]+m["trace.unattributed_s"])
	near("transient.forward_s", m["transient.forward_s"], m["transient.self_s"]+m["jactensor.put_s"])
	near("adjoint.reverse_s", m["adjoint.reverse_s"], m["adjoint.self_s"]+m["jactensor.fetch_s"]+m["jactensor.release_s"])
	for _, name := range []string{"trace.unattributed_s", "transient.self_s", "adjoint.self_s"} {
		if serial && m[name] < 0 {
			t.Errorf("%s: self time %s = %g is negative", path, name, m[name])
		}
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts feeds -compare one row of each verdict.
func TestCompareVerdicts(t *testing.T) {
	var decl declaration
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	const gated = "peak_rss_mb"
	bound := 0.0
	for _, m := range decl.EndToEnd {
		if m.Name == gated {
			bound = m.Bound
		}
	}
	dir := t.TempDir()
	// write makes a results file whose gated metric changed by change and
	// whose samples spread by spread, both as fractions of 100.
	write := func(name string, change, spread float64) string {
		v := 100 * (1 + change)
		file := resultsFile{Runs: 10, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			e := map[string]*e2eValue{}
			for _, d := range endToEnd {
				e[d.Name] = &e2eValue{Unit: d.Unit, Value: 1, Q1: 1, Q3: 1}
			}
			e[gated] = &e2eValue{Unit: "MB", Value: v, Q1: v - 50*spread, Q3: v + 50*spread}
			file.Workloads[w.Name] = &workloadResult{EndToEnd: e, RunS: &e2eValue{Unit: "s", Value: 2, Q1: 2, Q3: 2}}
		}
		buf, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 0, 0.01)
	for _, c := range []struct {
		b, verdict string
		worse      bool
	}{
		{write("same.json", bound/2, 0.01), "PASS", false},
		{write("slow.json", 1.5*bound, 0.01), "WORSE", true},
		{write("wide.json", 1.5*bound, 2*bound), "UNRESOLVED", false}, // spread hides the change
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, "../BENCHMARK.json", a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		row, ungated := "", ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "store_bound") && strings.Contains(l, " "+gated+" ") {
				row = l
			}
			if strings.HasPrefix(l, "store_bound") && strings.Contains(l, " masc.run_s ") {
				ungated = l
			}
		}
		if worse != c.worse || !strings.HasSuffix(row, c.verdict) || !strings.HasSuffix(ungated, "not gated") {
			t.Errorf("%s: worse=%v, rows %q, %q; want worse=%v verdict %s", filepath.Base(c.b), worse, row, ungated, c.worse, c.verdict)
		}
	}
}
