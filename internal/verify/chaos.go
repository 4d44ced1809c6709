package verify

import (
	"errors"
	"fmt"
	"math"

	"masc"
	"masc/internal/faultinject"
)

// Chaos verification: every case is re-run under deterministic fault
// injection and the outcome is classified against the fault-tolerance
// contract — a fault-injected pipeline must either finish with
// sensitivities BIT-IDENTICAL to the fault-free run (degrading to per-step
// recomputation where storage was damaged) or fail loudly with an error
// that names the failing step. Any other outcome is a chaos failure:
// silently wrong numbers, or an opaque error nobody can act on.

// ChaosOutcome classifies one fault-injected pipeline run.
type ChaosOutcome string

const (
	// OutcomeClean: the injector never fired (cadence missed every op);
	// the run is a plain pass and proves nothing about fault tolerance.
	OutcomeClean ChaosOutcome = "clean"
	// OutcomeDegraded: faults fired, the reverse sweep recomputed the
	// damaged steps, and the result is bit-identical to the baseline.
	OutcomeDegraded ChaosOutcome = "degraded"
	// OutcomeAbsorbed: faults fired but never surfaced — I/O retries
	// absorbed transient errors, or a corrupted blob was never on the
	// fetch path — and the result is bit-identical to the baseline.
	OutcomeAbsorbed ChaosOutcome = "absorbed"
	// OutcomeFailedLoud: the run failed with a diagnosable error — the
	// unwrap chain names the failing step or the injected fault.
	OutcomeFailedLoud ChaosOutcome = "failed-loud"
	// OutcomeSilent: the run "succeeded" with numbers that differ from
	// the fault-free baseline. The one unforgivable outcome.
	OutcomeSilent ChaosOutcome = "SILENT-CORRUPTION"
	// OutcomeOpaque: the run failed with an error that neither names a
	// step nor identifies the fault — undiagnosable in production.
	OutcomeOpaque ChaosOutcome = "opaque-error"
	// OutcomeNotRun: a budgeted scenario on a case whose chain holds no
	// blob bytes (every step a repeat, as on a linear circuit): no budget
	// binds it and the injector has no blob to damage, so the run could only
	// pass, and it is not made.
	OutcomeNotRun ChaosOutcome = "not-run"
)

// chaosScenario is one fault profile applied to one storage configuration.
// keep > 0 runs the MASC chain under a memory budget (splitBudget) that keeps
// about that share of its steps and drops the rest, so the faults land in the
// kept blobs — the top one decoded against recomputed frames — while the
// dropped steps are recomputed in the same sweep.
// gmin > 0 runs the solver with that DC conductance floor instead of the
// default, so a recomputed step 0 must carry the run's own value.
type chaosScenario struct {
	name    string
	storage masc.Storage
	async   bool
	keep    float64
	gmin    float64
	profile func(seed int64) faultinject.Profile
}

// chaosScenarios spans the fault surface: blob bit rot and truncation on
// every store kind, transient and hard I/O errors on the spill path, and a
// poisoned async compression worker. Cadences are primes so the fault
// positions drift across cases instead of pinning to the same steps.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{"bitflip-masc-sync", masc.StorageMASC, false, 0, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 7}
		}},
		{"bitflip-masc-async", masc.StorageMASC, true, 0, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 7}
		}},
		{"truncate-masc-sync", masc.StorageMASC, false, 0, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "truncate", Seed: s, TruncateOneIn: 7}
		}},
		{"bitflip-memory", masc.StorageMemory, false, 0, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitrot", Seed: s, BitFlipOneIn: 5}
		}},
		{"bitflip-disk", masc.StorageDisk, false, 0, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 7}
		}},
		{"eio-transient-disk", masc.StorageDisk, false, 0, 0, func(s int64) faultinject.Profile {
			// Single-shot failures: the disk layer's retry budget (4
			// attempts) must absorb every one of them.
			return faultinject.Profile{Name: "eio", Seed: s, FailOpEvery: 11, FailOpBurst: 1}
		}},
		{"eio-hard-disk", masc.StorageDisk, false, 0, 0, func(s int64) faultinject.Profile {
			// Bursts longer than the retry budget: the op must fail with a
			// typed error, and the pipeline must degrade or abort loudly.
			return faultinject.Profile{Name: "eio-hard", Seed: s, FailOpEvery: 23, FailOpBurst: 8}
		}},
		{"worker-panic-async", masc.StorageMASC, true, 0, 0, func(s int64) faultinject.Profile {
			// Every generated case has ≥ 15 steps, so the poisoned step is
			// always reached.
			return faultinject.Profile{Name: "panic", Seed: s, PanicAtStep: 1 + int(s%10)}
		}},

		// Budgeted chains: half the steps kept, so the injected faults land
		// in kept blobs, the top kept one decoding against recomputed frames.
		{"bitflip-budget", masc.StorageMASC, false, 0.5, 0, func(s int64) faultinject.Profile {
			// Rots blobs after sealing (caught at decode); they heal
			// through the repair ladder.
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 5}
		}},
		{"truncate-budget", masc.StorageMASC, false, 0.5, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "truncate", Seed: s, TruncateOneIn: 5}
		}},
		{"bitflip-budget-async", masc.StorageMASC, true, 0.5, 0, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 5}
		}},
		{"bitflip-budget-tight", masc.StorageMASC, false, 0.1, 0, func(s int64) faultinject.Profile {
			// A tenth of the chain kept: corruption has to survive a store
			// that recomputes nearly every step.
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 3}
		}},

		// A non-default gmin with every blob rotted: each step, the DC step
		// included, comes back through the recompute ladder, and its J must
		// carry the gmin the forward pass used, not the default — a J off by
		// that much still factors, so the only symptom is wrong numbers.
		{"bitflip-all-masc-gmin", masc.StorageMASC, false, 0, 1e-6, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 1}
		}},
		{"bitflip-all-budget-gmin", masc.StorageMASC, false, 0.5, 1e-6, func(s int64) faultinject.Profile {
			return faultinject.Profile{Name: "bitflip", Seed: s, BitFlipOneIn: 1}
		}},
	}
}

// ChaosCaseReport is the outcome of one (case, scenario) pair.
type ChaosCaseReport struct {
	Case     *Case
	Scenario string
	Outcome  ChaosOutcome
	// Degraded is how many reverse-sweep steps fell back to recomputation.
	Degraded int
	// Kept and Dropped are the steps a budgeted run's chain kept and
	// dropped (both 0 without a budget, or when the run failed).
	Kept, Dropped int
	// ChainBytes is what the blobs of the fault-free unbudgeted chain take,
	// which a budgeted scenario's budget is split from (0 without a budget,
	// or under Options.MemBudgetBytes). A chain of repeats has none, and no
	// budget at or over the reserve binds it.
	ChainBytes int64
	// Faults is what the injector actually delivered.
	Faults faultinject.Stats
	// Detail carries the error text (failure outcomes) or a mismatch
	// description (silent corruption).
	Detail string
}

// Bad reports whether this outcome violates the fault-tolerance contract.
func (r *ChaosCaseReport) Bad() bool {
	return r.Outcome == OutcomeSilent || r.Outcome == OutcomeOpaque
}

// ChaosReport aggregates a chaos fleet.
type ChaosReport struct {
	Reports []*ChaosCaseReport
	Counts  map[ChaosOutcome]int
	// Failed counts contract violations (silent corruption or opaque
	// errors) plus infrastructure failures.
	Failed int
}

// OK reports whether no run violated the fault-tolerance contract.
func (r *ChaosReport) OK() bool { return r.Failed == 0 }

// failedStep walks err's unwrap chain for anything that names the step it
// failed at (jactensor.StepError, adjoint.DegradeError, ...).
func failedStep(err error) (int, bool) {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if fs, ok := e.(interface{ FailedStep() int }); ok {
			return fs.FailedStep(), true
		}
	}
	return 0, false
}

// diagnosable reports whether a chaos-run error satisfies the "fail
// loudly" contract: it names the failing step, or at minimum identifies
// the injected fault.
func diagnosable(err error) bool {
	if _, ok := failedStep(err); ok {
		return true
	}
	return errors.Is(err, faultinject.ErrInjected)
}

// dodpEqual bit-compares two sensitivity matrices, returning a description
// of the first mismatch.
func dodpEqual(want, got [][]float64) (string, bool) {
	if len(want) != len(got) {
		return fmt.Sprintf("objective count %d vs %d", len(want), len(got)), false
	}
	for o := range want {
		if len(want[o]) != len(got[o]) {
			return fmt.Sprintf("obj %d param count %d vs %d", o, len(want[o]), len(got[o])), false
		}
		for k := range want[o] {
			if math.Float64bits(want[o][k]) != math.Float64bits(got[o][k]) {
				return fmt.Sprintf("obj %d param %d: %g vs %g", o, k, got[o][k], want[o][k]), false
			}
		}
	}
	return "", true
}

// simulateChaos rebuilds the case and runs it under one storage
// configuration and memory budget (0 = none) with an optional fault injector
// attached to the store.
func simulateChaos(c *Case, o Options, sc chaosScenario, budget int64, inj *faultinject.Injector) (*masc.Run, error) {
	bt, err := c.Build()
	if err != nil {
		return nil, err
	}
	opt := bt.SimBase
	opt.Storage = sc.storage
	opt.Async = sc.async
	opt.AdjointWorkers = o.AdjointWorkers
	opt.Transient.Gmin = sc.gmin
	opt.MemBudgetBytes = budget
	opt.Fault = inj
	return masc.Simulate(bt.Ckt, opt, bt.Objectives, nil)
}

// chaosCase classifies one fault-injected run against its fault-free
// baseline. The baseline is computed lazily — only when the faulted run
// finishes and its numbers need a reference.
func chaosCase(c *Case, sc chaosScenario, opt Options) *ChaosCaseReport {
	rep := &ChaosCaseReport{Case: c, Scenario: sc.name}
	var budget int64
	if sc.keep > 0 {
		var err error
		if budget, rep.ChainBytes, err = splitBudget(c, opt, sc.keep); err != nil {
			rep.Outcome = OutcomeOpaque
			rep.Detail = fmt.Sprintf("fault-free unbudgeted run: %v", err)
			return rep
		}
		if rep.ChainBytes == 0 && opt.MemBudgetBytes == 0 {
			rep.Outcome = OutcomeNotRun
			return rep
		}
	}
	inj := faultinject.New(sc.profile(c.Seed))
	run, err := simulateChaos(c, opt, sc, budget, inj)
	rep.Faults = inj.Stats()

	if err != nil {
		if diagnosable(err) {
			rep.Outcome = OutcomeFailedLoud
		} else {
			rep.Outcome = OutcomeOpaque
		}
		rep.Detail = err.Error()
		return rep
	}
	rep.Degraded = len(run.Sens.DegradedSteps)
	rep.Kept, rep.Dropped = run.TensorStats.TierKeptSteps, run.TensorStats.TierDroppedSteps

	base, berr := simulateChaos(c, opt, sc, budget, nil)
	if berr != nil {
		rep.Outcome = OutcomeOpaque
		rep.Detail = fmt.Sprintf("fault-free baseline failed: %v", berr)
		return rep
	}
	if detail, same := dodpEqual(base.Sens.DOdp, run.Sens.DOdp); !same {
		rep.Outcome = OutcomeSilent
		rep.Detail = detail
		return rep
	}
	switch {
	case !rep.Faults.Any():
		rep.Outcome = OutcomeClean
	case rep.Degraded > 0:
		rep.Outcome = OutcomeDegraded
	default:
		rep.Outcome = OutcomeAbsorbed
	}
	return rep
}

// ChaosFleet runs every scenario against n seeded cases and aggregates the
// outcome distribution. A passing fleet proves the no-silent-corruption
// property over the whole fault surface: every injected fault either
// degraded transparently, was absorbed below the API, or failed loudly.
func ChaosFleet(n int, seed int64, opt Options) *ChaosReport {
	opt = opt.withDefaults()
	cr := &ChaosReport{Counts: map[ChaosOutcome]int{}}
	scenarios := chaosScenarios()
	for _, c := range Cases(n, seed) {
		for _, sc := range scenarios {
			rep := chaosCase(c, sc, opt)
			cr.Reports = append(cr.Reports, rep)
			cr.Counts[rep.Outcome]++
			if rep.Bad() {
				cr.Failed++
			}
			if opt.Logf != nil {
				opt.Logf("%-22s %-23s %-18s degraded=%-3d kept/dropped=%d/%d chain=%dB faults={blobs:%d ops:%d panics:%d} %s",
					c.Name(), sc.name, string(rep.Outcome), rep.Degraded, rep.Kept, rep.Dropped, rep.ChainBytes,
					rep.Faults.BlobsCorrupted, rep.Faults.OpsFailed, rep.Faults.Panics, rep.Detail)
			}
		}
	}
	return cr
}
