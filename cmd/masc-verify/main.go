// Command masc-verify runs the differential verification fleet: seeded
// randomized circuits are pushed through the full transient+adjoint
// pipeline under every Jacobian storage strategy, asserting that the
// compressed stores (sync and async) reproduce the dense in-RAM oracle
// bit for bit, and that the adjoint sensitivities agree with the direct
// method and with finite differences.
//
//	masc-verify -n 50 -seed 1
//
// Chaos mode replaces the differential matrix with the fault-injection
// gauntlet: every seeded case is re-run under deterministic storage faults
// (blob bit rot, truncation, transient and hard spill I/O errors, poisoned
// pipeline workers) and each run must either finish bit-identical to the
// fault-free baseline or fail loudly with an error naming the step:
//
//	masc-verify -chaos -seeds 20
//
// Crash mode forks journaled child runs of this binary, SIGKILLs each one
// mid-forward, at the forward/adjoint boundary, or mid-adjoint (the trigger
// is observed from the child's own write-ahead journal), then resumes the
// torn journal in-process and gates the sensitivities bit-identical to an
// uninterrupted reference:
//
//	masc-verify -crash -seeds 4
//
// The exit status is 0 only if every case passes every check, so the
// command slots directly into CI and pre-merge gauntlets.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"masc"
	"masc/internal/obs"
	"masc/internal/verify"
)

func main() {
	// A crash-gauntlet child re-execs this binary with its run spec in the
	// environment; it must route straight into the journaled run, before
	// flag parsing or telemetry setup.
	if verify.IsCrashChild() {
		os.Exit(verify.CrashChild())
	}
	var (
		n       = flag.Int("n", 50, "number of randomized circuits")
		seed    = flag.Int64("seed", 1, "master seed for the case generator")
		fd      = flag.Int("fd", 4, "finite-difference checks per case (0 disables the FD layer)")
		fdTol   = flag.Float64("fd-tol", 1e-6, "finite-difference relative tolerance")
		dirTol  = flag.Float64("direct-tol", 1e-4, "adjoint-vs-direct relative tolerance")
		workers = flag.Int("workers", 1, "masczip compression workers")
		depth   = flag.Int("pipeline-depth", 2, "async store queue depth")
		windows = flag.Int("adjoint-windows", 0, "chaos mode: parallel-in-time window sweeps for the reverse pass (0/1 = one sweep)")
		budget  = flag.String("mem-budget", "", "chaos mode: override the tiered-store scenarios' memory budget, e.g. 8K or 64K (empty = per-scenario defaults)")
		verbose = flag.Bool("v", false, "log every case")

		chaos      = flag.Bool("chaos", false, "run the fault-injection gauntlet instead of the differential matrix")
		crash      = flag.Bool("crash", false, "run the crash-resume gauntlet: fork, SIGKILL mid-run, resume, gate bit-identity")
		chaosSeeds = flag.Int("seeds", 20, "chaos/crash mode: number of seeded cases (each runs every scenario)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address during the fleet run")
		maniPath    = flag.String("manifest", "", "write a JSON manifest of the fleet result to this file")
		hold        = flag.Duration("hold", 0, "keep the metrics endpoint alive this long after the fleet finishes")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	var srv *obs.Server
	if *metricsAddr != "" {
		var err error
		srv, err = obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "masc-verify:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving http://%s/metrics\n", srv.Addr)
	}

	opt := verify.Options{
		Workers:        *workers,
		PipelineDepth:  *depth,
		AdjointWindows: *windows,
		FDChecks:       *fd,
		FDTol:          *fdTol,
		DirectTol:      *dirTol,
	}
	if *budget != "" {
		b, err := masc.ParseByteSize(*budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "masc-verify: -mem-budget:", err)
			os.Exit(2)
		}
		opt.MemBudgetBytes = b
	}
	if *verbose {
		opt.Logf = func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		}
	}

	if *chaos {
		runChaos(*chaosSeeds, *seed, opt, reg, *maniPath, *hold, srv)
		return
	}
	if *crash {
		runCrash(*chaosSeeds, *seed, opt, reg, *maniPath)
		return
	}

	start := time.Now()
	cases := verify.Cases(*n, *seed)
	fr := verify.Fleet(cases, opt)

	reg.Gauge("masc_verify_cases", "Randomized circuits pushed through the fleet.").Set(float64(len(cases)))
	reg.Gauge("masc_verify_failed", "Cases with at least one failing check.").Set(float64(fr.Failed))
	reg.Gauge("masc_verify_max_direct_rel_err", "Worst adjoint-vs-direct relative error.").Set(fr.MaxDirectErr)
	reg.Gauge("masc_verify_max_fd_rel_err", "Worst finite-difference relative error.").Set(fr.MaxFDErr)

	fmt.Printf("masc-verify: %d cases, seed %d: %d passed, %d failed (%.1fs)\n",
		len(cases), *seed, len(cases)-fr.Failed, fr.Failed, time.Since(start).Seconds())
	fmt.Printf("  layers: dense oracle vs recompute/sync/async and markov sync/async/windows/budget (bitwise), store fetch sweep (bitwise),\n")
	fmt.Printf("          direct method (max rel err %.3g), finite differences (%d checked, %d skipped, max rel err %.3g)\n",
		fr.MaxDirectErr, fr.FDChecked, fr.FDSkipped, fr.MaxFDErr)
	if *maniPath != "" {
		man := obs.NewManifest("masc-verify")
		man.Set("n", *n).
			Set("seed", *seed).
			Set("fd_checks", *fd).
			Set("fd_tol", *fdTol).
			Set("direct_tol", *dirTol).
			Set("workers", *workers).
			Set("pipeline_depth", *depth)
		man.Section("fleet", map[string]any{
			"cases":          len(cases),
			"failed":         fr.Failed,
			"fd_checked":     fr.FDChecked,
			"fd_skipped":     fr.FDSkipped,
			"max_direct_err": fr.MaxDirectErr,
			"max_fd_err":     fr.MaxFDErr,
			"seconds":        time.Since(start).Seconds(),
		})
		man.AttachMetrics(reg)
		if err := man.Write(*maniPath); err != nil {
			fmt.Fprintln(os.Stderr, "masc-verify:", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *maniPath)
	}
	if *hold > 0 && srv != nil {
		fmt.Printf("holding metrics endpoint http://%s/metrics for %v\n", srv.Addr, *hold)
		time.Sleep(*hold)
	}
	if !fr.OK() {
		for _, rep := range fr.Reports {
			for _, f := range rep.Failures {
				fmt.Printf("  FAIL %s: %s\n", rep.Case.Name(), f)
			}
		}
		os.Exit(1)
	}
}

// runChaos executes the fault-injection gauntlet and reports the outcome
// distribution. Exit is nonzero on any contract violation: a run that
// finished with numbers differing from the fault-free baseline (silent
// corruption) or failed with an undiagnosable error.
func runChaos(seeds int, seed int64, opt verify.Options, reg *obs.Registry, maniPath string, hold time.Duration, srv *obs.Server) {
	start := time.Now()
	cr := verify.ChaosFleet(seeds, seed, opt)

	reg.Gauge("masc_chaos_runs", "Fault-injected pipeline runs.").Set(float64(len(cr.Reports)))
	reg.Gauge("masc_chaos_failed", "Chaos contract violations.").Set(float64(cr.Failed))

	fmt.Printf("masc-verify -chaos: %d seeds × %d scenarios = %d runs, seed %d (%.1fs)\n",
		seeds, len(cr.Reports)/max(seeds, 1), len(cr.Reports), seed, time.Since(start).Seconds())
	for _, oc := range []verify.ChaosOutcome{
		verify.OutcomeDegraded, verify.OutcomeAbsorbed, verify.OutcomeFailedLoud,
		verify.OutcomeClean, verify.OutcomeSilent, verify.OutcomeOpaque,
	} {
		if n := cr.Counts[oc]; n > 0 {
			fmt.Printf("  %-18s %d\n", string(oc), n)
		}
	}
	if maniPath != "" {
		man := obs.NewManifest("masc-verify-chaos")
		man.Set("seeds", seeds).Set("seed", seed)
		counts := map[string]any{}
		for oc, n := range cr.Counts {
			counts[string(oc)] = n
		}
		counts["failed"] = cr.Failed
		counts["seconds"] = time.Since(start).Seconds()
		man.Section("chaos", counts)
		man.AttachMetrics(reg)
		if err := man.Write(maniPath); err != nil {
			fmt.Fprintln(os.Stderr, "masc-verify:", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", maniPath)
	}
	if hold > 0 && srv != nil {
		fmt.Printf("holding metrics endpoint http://%s/metrics for %v\n", srv.Addr, hold)
		time.Sleep(hold)
	}
	if !cr.OK() {
		for _, r := range cr.Reports {
			if r.Bad() {
				fmt.Printf("  FAIL %s %s: %s: %s\n", r.Case.Name(), r.Scenario, r.Outcome, r.Detail)
			}
		}
		os.Exit(1)
	}
}

// runCrash executes the crash-resume gauntlet: every seeded case is forked
// as a journaled child of this binary, killed at a scenario-specific point,
// and its torn journal resumed in-process. Exit is nonzero if any resumed
// run is not bit-identical to the uninterrupted reference.
func runCrash(seeds int, seed int64, opt verify.Options, reg *obs.Registry, maniPath string) {
	start := time.Now()
	cr := verify.CrashFleet(seeds, seed, opt, nil)

	reg.Gauge("masc_crash_runs", "Forked kill-and-resume runs.").Set(float64(len(cr.Reports)))
	reg.Gauge("masc_crash_killed", "Runs where the SIGKILL landed mid-run.").Set(float64(cr.Killed))
	reg.Gauge("masc_crash_failed", "Runs whose resume was not bit-identical.").Set(float64(cr.Failed))

	fmt.Printf("masc-verify -crash: %d runs, seed %d: %d killed mid-run, %d failed (%.1fs)\n",
		len(cr.Reports), seed, cr.Killed, cr.Failed, time.Since(start).Seconds())
	if maniPath != "" {
		man := obs.NewManifest("masc-verify-crash")
		man.Set("seeds", seeds).Set("seed", seed)
		man.Section("crash", map[string]any{
			"runs":    len(cr.Reports),
			"killed":  cr.Killed,
			"failed":  cr.Failed,
			"seconds": time.Since(start).Seconds(),
		})
		man.AttachMetrics(reg)
		if err := man.Write(maniPath); err != nil {
			fmt.Fprintln(os.Stderr, "masc-verify:", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", maniPath)
	}
	if !cr.OK() {
		for _, r := range cr.Reports {
			for _, f := range r.Failures {
				name := "?"
				if r.Case != nil {
					name = r.Case.Name()
				}
				fmt.Printf("  FAIL %s %s: %s\n", name, r.Scenario, f)
			}
		}
		os.Exit(1)
	}
}
