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
	// so no budget binds it; at least one budget in the fleet must bind.
	budgeted, bound := 0, 0
	for _, r := range cr.Reports {
		if !strings.Contains(r.Scenario, "-budget") || r.Outcome == OutcomeFailedLoud {
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
}

// TestFailedStepUnwrapsChains pins the diagnosability helper on the typed
// error chains the storage layers actually produce.
func TestFailedStepUnwrapsChains(t *testing.T) {
	inner := &jactensor.StepError{Step: 7, Op: "fetch", Tensor: "J", Corrupt: true,
		Degradable: true, Err: errors.New("checksum")}
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
