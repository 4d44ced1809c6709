package transient

import (
	"context"
	"errors"
	"strings"
	"testing"

	"masc/internal/sparse"
)

// TestContextCancelReturnsPartialResult pins the graceful-shutdown contract:
// a context cancelled after k accepted steps returns the partial trajectory
// (every accepted step captured, none half-done) and an error wrapping
// ErrInterrupted.
func TestContextCancelReturnsPartialResult(t *testing.T) {
	ckt, _ := buildRC(t, 1e3, 1e-6)
	for _, k := range []int{0, 1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		captured := 0
		res, err := Run(ckt, Options{
			TStop: 1e-4, TStep: 1e-5, Ctx: ctx,
			Capture: func(step int, _ float64, _ []float64, _, _ *sparse.Matrix) error {
				captured++
				if captured > k {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: want ErrInterrupted wrapping context.Canceled, got %v", k, err)
		}
		if res == nil {
			t.Fatalf("k=%d: partial result must be returned alongside ErrInterrupted", k)
		}
		// Every recorded step was captured; nothing was recorded past the stop.
		if len(res.Times) != captured {
			t.Fatalf("k=%d: recorded %d steps but captured %d", k, len(res.Times), captured)
		}
		if captured != k+1 {
			t.Fatalf("k=%d: run did not stop at the step boundary: %d captures", k, captured)
		}
	}
}

// TestContextNeverCancelledIsHarmless: a context that is never cancelled must
// not perturb the run.
func TestContextNeverCancelledIsHarmless(t *testing.T) {
	ckt, _ := buildRC(t, 1e3, 1e-6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ckt, Options{TStop: 1e-4, TStep: 1e-5, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", res.Steps())
	}
}

// TestCaptureErrorAbortsRun: a failing Capture (e.g. disk full in the
// storage backend) must abort the run with a wrapped error naming the step.
func TestCaptureErrorAbortsRun(t *testing.T) {
	ckt, _ := buildRC(t, 1e3, 1e-6)
	boom := errors.New("spill device gone")
	for _, failAt := range []int{0, 2, 5} {
		_, err := Run(ckt, Options{
			TStop: 1e-4, TStep: 1e-5,
			Capture: func(step int, _ float64, _ []float64, _, _ *sparse.Matrix) error {
				if step == failAt {
					return boom
				}
				return nil
			},
		})
		if !errors.Is(err, boom) {
			t.Fatalf("failAt=%d: capture error not propagated: %v", failAt, err)
		}
		if !strings.Contains(err.Error(), "capture step") {
			t.Fatalf("failAt=%d: error does not name the capture step: %v", failAt, err)
		}
	}
}
