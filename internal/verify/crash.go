package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"masc"
	"masc/internal/runstate"
)

// The crash gauntlet (masc-verify -crash) is the process-level half of the
// crash-durability contract: it forks a real child process running a
// journaled simulation, SIGKILLs it at a seeded trigger observed from the
// journal itself (mid-forward, right after forward-done, mid-adjoint),
// resumes the torn journal in-process, and gates the resumed sensitivities
// bit-identical against an uninterrupted journaled reference. SIGKILL is
// not interceptable, so whatever the journal holds at that instant is
// exactly what a power cut would have left.

// CrashChildEnv carries the JSON CrashSpec into the forked child process.
const CrashChildEnv = "MASC_CRASH_CHILD_SPEC"

// CrashSpec describes the journaled run a forked crash child executes.
// The circuit is not serialized: the child rebuilds it from the case seed,
// which is deterministic across processes.
type CrashSpec struct {
	CaseIndex int    `json:"case_index"`
	CaseSeed  int64  `json:"case_seed"`
	Family    string `json:"family"`

	Storage         string  `json:"storage"`
	MemBudgetBytes  int64   `json:"mem_budget_bytes,omitempty"`
	DiskBytesPerSec float64 `json:"disk_bps,omitempty"`
	// StepSleepMs throttles the forward loop so the parent's kill trigger
	// reliably lands mid-phase on the gauntlet's small circuits.
	StepSleepMs int    `json:"step_sleep_ms,omitempty"`
	FsyncEvery  int    `json:"fsync_every,omitempty"`
	Journal     string `json:"journal"`
	// DiskDir holds the child's spill file, which the SIGKILL leaves behind.
	DiskDir string `json:"disk_dir"`
}

// IsCrashChild reports whether this process was forked as a crash child.
func IsCrashChild() bool { return os.Getenv(CrashChildEnv) != "" }

// CrashChild executes the journaled run described by the environment spec
// and returns the process exit code; callers (masc-verify's main, the test
// helper) must os.Exit with it immediately.
func CrashChild() int {
	var spec CrashSpec
	if err := json.Unmarshal([]byte(os.Getenv(CrashChildEnv)), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "crash child: bad spec:", err)
		return 2
	}
	c := &Case{Index: spec.CaseIndex, Seed: spec.CaseSeed, Family: spec.Family}
	bt, err := c.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 2
	}
	opt := bt.SimBase
	opt.Storage = masc.Storage(spec.Storage)
	opt.MemBudgetBytes = spec.MemBudgetBytes
	opt.DiskBytesPerSec = spec.DiskBytesPerSec
	opt.Journal = spec.Journal
	opt.JournalFsyncEvery = spec.FsyncEvery
	opt.DiskDir = spec.DiskDir
	if spec.StepSleepMs > 0 {
		d := time.Duration(spec.StepSleepMs) * time.Millisecond
		opt.Transient.AfterStep = func(int, float64, float64, float64, int, []float64) error {
			time.Sleep(d)
			return nil
		}
	}
	if _, err := masc.Simulate(bt.Ckt, opt, bt.Objectives, nil); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 1
	}
	return 0
}

// crashScenario is one (storage, kill point) cell of the gauntlet matrix.
type crashScenario struct {
	name    string
	storage masc.Storage
	budget  int64
	diskBPS float64
	sleepMs int
	// spills: a killed child always leaves a spill file behind.
	spills bool
	// trigger inspects the child's journal as it grows; true = kill now.
	trigger func(r *runstate.Recovered, killStep int) bool
}

// crashScenarios is the matrix for one case; budget is the budgeted
// scenario's memory budget.
func crashScenarios(budget int64) []crashScenario {
	return []crashScenario{
		// Mid-forward kill under the compressed store; the throttle keeps
		// the forward phase slow enough that the seeded step is observed.
		{name: "kill-forward-masc", storage: masc.StorageMASC, sleepMs: 2,
			trigger: func(r *runstate.Recovered, killStep int) bool { return len(r.Steps) >= killStep }},
		// Kill at the forward/adjoint boundary under a budget that keeps
		// about half the chain, so the resume re-seeds the store, keeps the
		// same prefix and recomputes the rest.
		{name: "kill-forward-done-budget", storage: masc.StorageMASC, budget: budget, sleepMs: 1,
			trigger: func(r *runstate.Recovered, _ int) bool { return r.ForwardDone }},
		// Mid-adjoint kill: the trigger fires on forward-done, and the
		// bandwidth-modelled disk store keeps the reverse sweep running long
		// enough that the kill lands inside it; the resume sweeps again.
		{name: "kill-adjoint-disk", storage: masc.StorageDisk, diskBPS: 2e6, spills: true,
			trigger: func(r *runstate.Recovered, _ int) bool { return r.ForwardDone }},
	}
}

// CrashCaseReport is the outcome of one forked run.
type CrashCaseReport struct {
	Case     *Case
	Scenario string
	// Outcome is "killed+resumed" (the trigger fired and the kill landed
	// mid-run) or "finished-before-kill" (the child beat the trigger; the
	// completed journal was still resumed and gated). Empty on failure.
	Outcome  string
	Failures []string
	// GarbledSpills counts the spill files the killed child left, each
	// overwritten with garbage before the resume.
	GarbledSpills int
}

// CrashReport aggregates the gauntlet.
type CrashReport struct {
	Reports []*CrashCaseReport
	Failed  int
	// Killed counts runs where the SIGKILL actually landed mid-run.
	Killed int
}

// OK reports whether every forked run resumed bit-identical.
func (r *CrashReport) OK() bool { return r.Failed == 0 }

// CrashFleet forks one journaled run per (case, scenario) from the current
// binary, kills it at the scenario's trigger, resumes the torn journal
// in-process and gates bit-identity against an uninterrupted journaled
// reference. childArgs is the extra argv the forked binary needs to route
// itself into CrashChild (none for masc-verify; the test harness passes its
// -test.run selector).
func CrashFleet(seeds int, seed int64, opt Options, childArgs []string) *CrashReport {
	rep := &CrashReport{}
	exe, err := os.Executable()
	if err != nil {
		rep.Reports = append(rep.Reports, &CrashCaseReport{
			Failures: []string{fmt.Sprintf("os.Executable: %v", err)}})
		rep.Failed++
		return rep
	}
	dir, err := os.MkdirTemp("", "masc-crash-*")
	if err != nil {
		rep.Reports = append(rep.Reports, &CrashCaseReport{
			Failures: []string{fmt.Sprintf("temp dir: %v", err)}})
		rep.Failed++
		return rep
	}
	defer os.RemoveAll(dir)

	for _, c := range Cases(seeds, seed) {
		bt, err := c.Build()
		if err != nil {
			rep.Reports = append(rep.Reports, &CrashCaseReport{Case: c,
				Failures: []string{err.Error()}})
			rep.Failed++
			continue
		}
		// The uninterrupted reference. It must be journaled too: journaling
		// pins FreshFactorPerStep, and the bit-compare needs both sides on
		// the same factorization discipline. Storage is bit-irrelevant by
		// the engine's contract, so one reference serves every scenario.
		refOpt := bt.SimBase
		refOpt.Storage = masc.StorageMASC
		refOpt.Journal = filepath.Join(dir, fmt.Sprintf("case%03d-ref.journal", c.Index))
		ref, err := masc.Simulate(bt.Ckt, refOpt, bt.Objectives, nil)
		if err != nil {
			rep.Reports = append(rep.Reports, &CrashCaseReport{Case: c,
				Failures: []string{fmt.Sprintf("reference run: %v", err)}})
			rep.Failed++
			continue
		}
		budget := opt.MemBudgetBytes
		if budget <= 0 {
			budget = budgetShare(bt.Ckt, ref.TensorStats, 0.5)
		}
		rng := rand.New(rand.NewSource(c.Seed ^ 0x6b696c6c)) // "kill"
		for _, sc := range crashScenarios(budget) {
			killStep := 3 + rng.Intn(bt.Steps/2+1)
			r := runCrashScenario(exe, childArgs, dir, c, bt, sc, killStep, ref)
			rep.Reports = append(rep.Reports, r)
			if len(r.Failures) > 0 {
				rep.Failed++
			} else if r.Outcome == "killed+resumed" {
				rep.Killed++
			}
			if opt.Logf != nil {
				opt.Logf("  %s %s: %s killStep=%d garbledSpills=%d failures=%d",
					c.Name(), sc.name, r.Outcome, killStep, r.GarbledSpills, len(r.Failures))
			}
		}
	}
	return rep
}

func runCrashScenario(exe string, childArgs []string, dir string, c *Case, bt *Built,
	sc crashScenario, killStep int, ref *masc.Run) *CrashCaseReport {
	r := &CrashCaseReport{Case: c, Scenario: sc.name}
	fail := func(format string, args ...any) *CrashCaseReport {
		r.Outcome = ""
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		return r
	}
	base := filepath.Join(dir, fmt.Sprintf("case%03d-%s", c.Index,
		strings.ReplaceAll(sc.name, "/", "-")))
	journal, spillDir := base+".journal", base+".spill"
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		return fail("spill dir: %v", err)
	}
	spec := CrashSpec{
		CaseIndex: c.Index, CaseSeed: c.Seed, Family: c.Family,
		Storage:        string(sc.storage),
		MemBudgetBytes: sc.budget, DiskBytesPerSec: sc.diskBPS,
		StepSleepMs: sc.sleepMs,
		FsyncEvery:  1, // journal visibility at every step: the widest kill surface
		Journal:     journal,
		DiskDir:     spillDir,
	}
	raw, err := json.Marshal(&spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}
	cmd := exec.Command(exe, childArgs...)
	cmd.Env = append(os.Environ(), CrashChildEnv+"="+string(raw))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return fail("start child: %v", err)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()

	killed := false
	start := time.Now()
poll:
	for {
		select {
		case werr := <-waitc:
			if werr != nil {
				return fail("child failed before the kill: %v: %s", werr, stderr.String())
			}
			break poll // finished cleanly first; resume the complete journal
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			cmd.Process.Kill()
			<-waitc
			return fail("kill trigger never fired within 30s (journal: %s)", journal)
		}
		if rcv, err := runstate.Recover(journal); err == nil && sc.trigger(rcv, killStep) {
			cmd.Process.Kill()
			<-waitc
			killed = true
			break poll
		}
	}

	// Nothing but the journal crosses the kill: garble every spill file the
	// child left before resuming, which must not read them.
	garbled, err := garbleSpills(spillDir)
	if err != nil {
		return fail("garble spill files: %v", err)
	}
	if killed && sc.spills && garbled == 0 {
		return fail("the killed child left no spill file in %s to garble", spillDir)
	}
	r.GarbledSpills = garbled

	run, err := masc.Resume(bt.Ckt, journal, masc.SimOptions{})
	if err != nil {
		return fail("resume: %v (child stderr: %s)", err, stderr.String())
	}
	if msg, ok := dodpEqual(ref.Sens.DOdp, run.Sens.DOdp); !ok {
		return fail("resumed sensitivities differ from uninterrupted reference: %s", msg)
	}
	// The healed journal must now short-circuit without replaying anything.
	again, err := masc.Resume(bt.Ckt, journal, masc.SimOptions{})
	if err != nil {
		return fail("resume of healed journal: %v", err)
	}
	if again.Tran != nil {
		return fail("healed journal replayed the forward phase instead of short-circuiting")
	}
	if msg, ok := dodpEqual(ref.Sens.DOdp, again.Sens.DOdp); !ok {
		return fail("short-circuit result differs: %s", msg)
	}
	if killed {
		r.Outcome = "killed+resumed"
	} else {
		r.Outcome = "finished-before-kill"
	}
	return r
}

// garbleSpills overwrites every spill file in dir with random bytes of the
// same length and returns how many it overwrote.
func garbleSpills(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "masc-spill-*.bin"))
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		junk := make([]byte, fi.Size())
		rng.Read(junk)
		if err := os.WriteFile(f, junk, 0o644); err != nil {
			return 0, err
		}
	}
	return len(files), nil
}
