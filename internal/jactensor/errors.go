package jactensor

import (
	"errors"
	"fmt"
)

// ErrCorrupt classifies integrity failures: a stored blob whose checksum,
// frame header, or decode no longer matches what was written. Match with
// errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("jactensor: stored blob failed integrity verification")

// ErrClosed reports a Put or Fetch on a compressed store whose
// Close has already run: the blobs are gone, so the call fails instead of
// touching them. It arrives wrapped in a non-degradable *StepError.
var ErrClosed = errors.New("jactensor: store is closed")

// StepError is a storage failure attributed to one step of the tensor, so a
// multi-hour run that dies (or degrades) names exactly which step went bad.
type StepError struct {
	Step   int
	Op     string // "put", "fetch", "compress"
	Tensor string // "J", "C", or "" when not tensor-specific
	// Corrupt marks an integrity failure (errors.Is(err, ErrCorrupt)).
	Corrupt    bool
	degradable bool // see Degradable
	Err        error
}

func (e *StepError) Error() string {
	tensor := ""
	if e.Tensor != "" {
		tensor = " tensor " + e.Tensor
	}
	return fmt.Sprintf("jactensor: %s step %d%s: %v", e.Op, e.Step, tensor, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, ErrCorrupt) match corruption without a sentinel in
// the wrap chain.
func (e *StepError) Is(target error) bool { return target == ErrCorrupt && e.Corrupt }

// Degradable reports whether the reverse sweep may recover from the failure
// by recomputing the step: fetch-side corruption or read failures, not
// put-side ones, which must abort the forward pass. The sweep asks through
// an interface, so it needs no import of this package.
func (e *StepError) Degradable() bool { return e.degradable }

// FailedStep returns the step the failure is attributed to; the chaos
// harness uses it (via an interface) to assert that every loud failure is
// diagnosable.
func (e *StepError) FailedStep() int { return e.Step }

// corruptErr builds the degradable integrity-failure form of StepError.
func corruptErr(step int, op, tensor string, err error) *StepError {
	return &StepError{Step: step, Op: op, Tensor: tensor, Corrupt: true, degradable: true, Err: err}
}

// closedErr is the fetch failure of a closed compressed store: typed, and not
// degradable — recomputing the step would only fail again on the Repair.
func closedErr(step int) *StepError {
	return &StepError{Step: step, Op: "fetch", Err: ErrClosed}
}

// Repairer is the optional store capability the adjoint sweep uses after
// recomputing a damaged step: Repair installs known-good plaintext for the
// step so later fetches (and, for the chained compressed store, step-1's
// decompression reference) come from the repaired values instead of the
// quarantined blob.
type Repairer interface {
	Repair(step int, jVals, cVals []float64)
}
