// Command benchmark is the repository's end-to-end benchmark: five
// sensitivity-run workloads measured through the public masc.Simulate
// facade, plus a traced run that attributes the time to layers. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload store_bound --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -seed 1 -runs 10        # every workload, results.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
)

func fatalf(format string, a ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}

// config is the parent's view of one invocation.
type config struct {
	seed     int64
	seconds  float64
	scaleMul float64 // 1; the smoke test shrinks every workload with it
	out      string
}

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		runChild(raw)
		return
	}
	cfg := config{scaleMul: 1}
	workloadName := flag.String("workload", "", "run one workload and print one result line (default: all, written to <out>/results.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: timed runs per workload, on seeds seed..seed+runs-1")
	compare := flag.Bool("compare", false, "compare two results files given as arguments against the bounds in -spec")
	specPath := flag.String("spec", "BENCHMARK.json", "with -compare: the benchmark declaration holding the bounds")
	flag.Int64Var(&cfg.seed, "seed", 1, "input selection seed (parameter subset and objective node/time rotation)")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measuring time box of one run")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for span files, results and scratch")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two results files")
		}
		worse, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		r, err := runWorkload(w, cfg, cfg.seed, *trace == 1)
		if err != nil {
			fatalf("%v", err)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		r.print(os.Stdout, w.Name, defs)
		if err := r.printContractLine(os.Stdout, defs); err != nil {
			fatalf("%v", err)
		}
		if r.Failed != 0 {
			os.Exit(1)
		}
	default:
		ok, err := runAll(cfg, *runs)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// runWorkload runs the phases of one workload one after another, each in a
// fresh child process: the reference, then the timed or the traced phase.
func runWorkload(w spec, cfg config, seed int64, traced bool) (*childResult, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.out, w.Name+"-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	cs := childSpec{Phase: "reference", Workload: w.Name, Seed: seed, Seconds: cfg.seconds,
		ScaleMul: cfg.scaleMul, TmpDir: tmp, RefPath: filepath.Join(tmp, "reference.json"),
		SpanPath: filepath.Join(cfg.out, w.Name+".spans.jsonl")}
	if _, _, err := spawn(cs); err != nil {
		return nil, err
	}
	cs.Phase = "timed"
	if traced {
		cs.Phase = "traced"
	}
	r, usage, err := spawn(cs)
	if err != nil {
		return nil, err
	}
	if !traced {
		// Linux reports ru_maxrss in KiB.
		r.Metrics["peak_rss_mb"] = float64(usage.Maxrss) * 1024 / 1e6
	}
	return r, nil
}

// spawn re-executes this binary as one phase, waits for it, and decodes the
// result it printed. The child's stderr passes through.
func spawn(cs childSpec) (*childResult, *syscall.Rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(cs)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s phase: %w", cs.Workload, cs.Phase, err)
	}
	usage, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, nil, errors.New("no resource usage for child process")
	}
	var cr childResult
	if err := json.Unmarshal(out, &cr); err != nil {
		return nil, nil, fmt.Errorf("%s %s phase: bad result: %w", cs.Workload, cs.Phase, err)
	}
	return &cr, usage, nil
}
