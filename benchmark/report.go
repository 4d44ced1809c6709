package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// print lists every metric of one run by name with its unit.
func (r *childResult) print(w io.Writer, workload string, defs []metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-13s %-30s %14.6g %s\n", workload, d.Name, r.Metrics[d.Name], d.Unit)
	}
	// The ungated headline time: printed by both kinds of run; the base of
	// est_share and overhead_frac in a traced one.
	q1, q3 := quartiles(r.RunSamples)
	fmt.Fprintf(w, "%-13s masc.run_s = %.6g s, the median of %d reps (quartiles %.6g .. %.6g s, fastest %.6g s)\n",
		workload, median(r.RunSamples), len(r.RunSamples), q1, q3, fastest(r.RunSamples))
	if n, ok := r.Metrics["setup_count"]; ok {
		fmt.Fprintf(w, "%-13s setup_s is the fastest of %.0f set-ups (first quartile %.6g s, median %.6g s)\n",
			workload, n, r.Metrics["setup_q1_s"], r.Metrics["setup_median_s"])
	}
	fmt.Fprintf(w, "%-13s operations: %d attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-13s FAILED %s\n", workload, e)
	}
}

// printContractLine writes the single JSON object the benchmark driver reads
// as the last line of standard output.
func (r *childResult) printContractLine(w io.Writer, defs []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = mv{v, d.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// resultsFile is what a complete set of runs writes and -compare reads.
type resultsFile struct {
	Env       map[string]string          `json:"env"`
	Seed      int64                      `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string]*e2eValue `json:"end_to_end"`
	// RunS is masc.run_s as the timed runs saw it (one median per run): more
	// samples than the traced run's, for -compare's ungated rows.
	RunS     *e2eValue             `json:"masc.run_s"`
	PerLayer map[string]layerValue `json:"per_layer"`
}

// e2eValue is the median of Samples, one per run, with the quartiles its
// spread is judged by.
type e2eValue struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func (v *e2eValue) summarise() {
	v.Value, v.N = median(v.Samples), len(v.Samples)
	v.Q1, v.Q3 = quartiles(v.Samples)
}

type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// runAll is the one command: every workload, runs timed runs each on
// consecutive seeds, then one traced run, everything printed and written to
// <out>/results.json. It returns false if any operation failed.
func runAll(cfg config, runs int) (bool, error) {
	if runs < 1 {
		return false, fmt.Errorf("-runs %d", runs)
	}
	file := &resultsFile{Env: environment(), Seed: cfg.seed, Runs: runs, Seconds: cfg.seconds,
		Workloads: map[string]*workloadResult{}}
	ok := true
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: map[string]*e2eValue{}, RunS: &e2eValue{Unit: "s"},
			PerLayer: map[string]layerValue{}}
		file.Workloads[w.Name] = wr
		for i := 0; i < runs; i++ {
			r, err := runWorkload(w, cfg, cfg.seed+int64(i), false)
			if err != nil {
				return false, err
			}
			r.print(os.Stdout, w.Name, endToEnd)
			ok = ok && r.Failed == 0
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.RunS.Samples = append(wr.RunS.Samples, median(r.RunSamples))
			for _, d := range endToEnd {
				v := wr.EndToEnd[d.Name]
				if v == nil {
					v = &e2eValue{Unit: d.Unit}
					wr.EndToEnd[d.Name] = v
				}
				v.Samples = append(v.Samples, r.Metrics[d.Name])
			}
		}
		wr.RunS.summarise()
		for _, v := range wr.EndToEnd {
			v.summarise()
		}
		r, err := runWorkload(w, cfg, cfg.seed, true)
		if err != nil {
			return false, err
		}
		r.print(os.Stdout, w.Name, perLayer)
		ok = ok && r.Failed == 0
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = layerValue{d.Unit, r.Metrics[d.Name]}
		}
	}
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(cfg.out, "results.json")
	fmt.Printf("results written to %s\n", path)
	return ok, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// environment records where a set of runs was measured. Best effort: a
// field the host does not expose reads "unknown".
func environment() map[string]string {
	firstLine := func(b []byte, err error) string {
		if s := strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0]); err == nil && s != "" {
			return s
		}
		return "unknown"
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     firstLine(exec.Command("git", "rev-parse", "HEAD").Output()),
		"cpu":        cpu,
		"llc":        firstLine(os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")),
	}
}
