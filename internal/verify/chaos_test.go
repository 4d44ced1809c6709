package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"masc/internal/faultinject"
	"masc/internal/jactensor"
)

// TestChaosFleetSmall runs the full scenario matrix over a handful of
// seeds. The assertions are the chaos gate itself: no silent corruption,
// no opaque errors, and the injector must actually have fired somewhere
// (a fleet of all-clean outcomes proves nothing).
func TestChaosFleetSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleet is seconds-long; skipped in -short")
	}
	cr := ChaosFleet(4, 1234, Options{})
	if !cr.OK() {
		for _, r := range cr.Reports {
			if r.Bad() {
				t.Errorf("%s/%s: %s: %s", r.Case.Name(), r.Scenario, r.Outcome, r.Detail)
			}
		}
		t.Fatalf("chaos fleet failed: %d contract violations", cr.Failed)
	}
	exercised := cr.Counts[OutcomeDegraded] + cr.Counts[OutcomeAbsorbed] + cr.Counts[OutcomeFailedLoud]
	if exercised == 0 {
		t.Fatalf("no scenario delivered a fault: %v", cr.Counts)
	}
	if cr.Counts[OutcomeDegraded] == 0 {
		t.Fatalf("no run exercised the degradation path: %v", cr.Counts)
	}
	if cr.Counts[OutcomeFailedLoud] == 0 {
		t.Fatalf("no run exercised the fail-loudly path: %v", cr.Counts)
	}
	// The budgeted scenarios keep part of each chain that holds blob bytes
	// and drop the rest, so their faults land in kept blobs of a sweep that
	// also recomputes. A chain of repeats (a linear circuit's) holds none,
	// so no budget binds it and nothing can be damaged: those runs are not
	// made, and every other budgeted run must keep and drop steps. At least
	// one budget in the fleet must bind, and every budgeted scenario must
	// deliver a fault somewhere in the fleet.
	budgeted, bound := 0, 0
	faulted := map[string]bool{}
	for _, r := range cr.Reports {
		if !strings.Contains(r.Scenario, "-budget") {
			continue
		}
		faulted[r.Scenario] = faulted[r.Scenario] || r.Faults.Any()
		if r.Outcome == OutcomeNotRun {
			if r.ChainBytes != 0 || r.Faults.Any() {
				t.Errorf("%s/%s: not run, with a chain of %d blob bytes and faults %+v", r.Case.Name(), r.Scenario, r.ChainBytes, r.Faults)
			}
			continue
		}
		if r.Outcome == OutcomeFailedLoud {
			continue
		}
		budgeted++
		if r.Dropped > 0 {
			bound++
		}
		if r.ChainBytes > 0 && (r.Kept == 0 || r.Dropped == 0) {
			t.Errorf("%s/%s: kept %d, dropped %d steps of a chain of %d blob bytes", r.Case.Name(), r.Scenario, r.Kept, r.Dropped, r.ChainBytes)
		}
	}
	if budgeted == 0 {
		t.Fatal("no budgeted run finished")
	}
	if bound == 0 {
		t.Fatal("no budgeted run dropped a step: the budgeted scenarios bound nothing")
	}
	for _, sc := range chaosScenarios() {
		if sc.keep > 0 && !faulted[sc.name] {
			t.Errorf("budgeted scenario %s delivered no fault in the fleet", sc.name)
		}
	}
}

// TestFailedStepUnwrapsChains pins the diagnosability helper on the typed
// error chains the storage layers actually produce.
func TestFailedStepUnwrapsChains(t *testing.T) {
	inner := &jactensor.StepError{Step: 7, Op: "fetch", Tensor: "J", Corrupt: true,
		Err: errors.New("checksum")}
	wrapped := fmt.Errorf("adjoint: fetch step 7: %w", fmt.Errorf("x: %w", inner))
	if step, ok := failedStep(wrapped); !ok || step != 7 {
		t.Fatalf("failedStep(%v) = %d, %v", wrapped, step, ok)
	}
	if !diagnosable(wrapped) {
		t.Fatal("wrapped StepError must be diagnosable")
	}
	if _, ok := failedStep(errors.New("mystery")); ok {
		t.Fatal("plain error must not claim a step")
	}
	if diagnosable(errors.New("mystery")) {
		t.Fatal("plain error is not diagnosable")
	}
	if !diagnosable(fmt.Errorf("io: %w", faultinject.ErrInjected)) {
		t.Fatal("injected-fault errors are diagnosable")
	}
}

// TestBudgetedScenarioOnABloblessChainIsNotRun: a budgeted scenario on a case
// whose chain holds no blob bytes — a linear circuit's, every step a repeat —
// is reported not-run, with nothing injected and no budget split; under an
// explicit budget (-mem-budget), which does not read the chain's bytes, the
// same scenario runs; and on a case whose chain holds blob bytes it runs and
// keeps and drops steps.
func TestBudgetedScenarioOnABloblessChainIsNotRun(t *testing.T) {
	opt := Options{}.withDefaults()
	var blobless, moving *Case
	for _, c := range Cases(8, 1) {
		_, chain, err := splitBudget(c, opt, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case chain == 0 && blobless == nil:
			blobless = c
		case chain > 0 && moving == nil:
			moving = c
		}
	}
	if blobless == nil || moving == nil {
		t.Fatalf("the fleet has no blobless case (%v) or no case with blob bytes (%v)", blobless, moving)
	}
	var sc chaosScenario
	for _, s := range chaosScenarios() {
		if s.name == "bitflip-budget" {
			sc = s
		}
	}
	if r := chaosCase(blobless, sc, opt); r.Outcome != OutcomeNotRun || r.Faults.Any() || r.Bad() {
		t.Fatalf("%s: %s with faults %+v, want %s and nothing injected", blobless.Name(), r.Outcome, r.Faults, OutcomeNotRun)
	}
	explicit := opt
	explicit.MemBudgetBytes = 1 << 10
	if r := chaosCase(blobless, sc, explicit); r.Outcome == OutcomeNotRun || r.Bad() {
		t.Fatalf("%s under an explicit budget: %s (%s)", blobless.Name(), r.Outcome, r.Detail)
	}
	r := chaosCase(moving, sc, opt)
	if r.Outcome == OutcomeNotRun || r.Bad() || r.ChainBytes == 0 {
		t.Fatalf("%s: %s over a chain of %d blob bytes (%s)", moving.Name(), r.Outcome, r.ChainBytes, r.Detail)
	}
	if r.Outcome != OutcomeFailedLoud && (r.Kept == 0 || r.Dropped == 0) {
		t.Fatalf("%s: kept %d, dropped %d steps", moving.Name(), r.Kept, r.Dropped)
	}
}
