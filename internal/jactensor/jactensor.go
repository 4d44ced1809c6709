// Package jactensor manages the Jacobian tensor — per timestep, a pair of
// value arrays produced by forward integration and consumed in reverse by the
// adjoint sweep. The facade stores (G, C) = (∂f/∂x, ∂q/∂x), what the devices
// produce, and the sweep rebuilds J = G + C/h from it; the benchmark's trace
// still feeds the assembled (J, C). The exported signatures name the first
// tensor j… and the second c…; inside, a step's tensors are indexed: nTensors
// of them, one step's plaintext a tensors array, and every per-tensor field
// and rule an array and a loop over them, the tensor's tag and error name
// from tensorTags.
//
// The package is one chain store and two raw stores. The core (core.go) owns
// the per-step records, the blob arena, the frame pool and the single seal /
// keep / open-and-decode / quarantine / heal path, and every store shares the
// Put contract, the resident meter and the one Attach call (storeBase).
// CompressedStore is the chain over it — the paper's Algorithm 2: every blob
// in RAM, each predicted from the steps above it (as many as its codecs read,
// held in a window of plaintext frames: the nearest flat, the deeper ones as
// the blocks they changed), sync or pipelined, over the codecs its caller
// names. Under a memory budget (budget.go) it keeps the prefix of steps whose
// blobs fit and recomputes the rest in the reverse sweep. One reverse reader,
// the store's own (reader.go), brings its steps back. MemStore (raw
// in-memory, the reference the others are compared with) and DiskStore (raw
// spill) keep plaintext and share only storeBase.
// Full recomputation lives in the adjoint package.
package jactensor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"masc/internal/blobframe"
	"masc/internal/obs/span"
)

// ErrOutOfOrder reports a Fetch that violates the reverse-sequential
// contract of a chained (compressed) store.
var ErrOutOfOrder = errors.New("jactensor: compressed store must be fetched in reverse step order")

// Stats describes a store's footprint and time costs.
type Stats struct {
	Steps          int
	RawBytes       int64 // total uncompressed payload: the paper's S_NZ of the stored pair (G, C in the facade)
	StoredBytes    int64 // bytes held by the store after EndForward
	PeakResident   int64 // peak resident memory bytes during the run
	CompressTime   time.Duration
	DecompressTime time.Duration
	IOTime         time.Duration
	// StallTime is the solver-visible time Put spent blocked on a full
	// compression queue (async stores only): the residue of compression
	// cost that the pipeline failed to hide behind the solve.
	StallTime time.Duration
	// CorruptBlobs counts fetches that failed integrity verification and
	// were quarantined; Repairs counts quarantined steps later healed with
	// recomputed plaintext.
	CorruptBlobs int
	Repairs      int
	// DiskRetries counts transient spill-I/O attempts absorbed by the
	// retry loop (disk store only).
	DiskRetries int64
	// Deprecated: always 0; the chain keeps no anchor frames.
	AnchorBytes int64
	// HistoryBytes is the most plaintext any one seal or decode of the
	// compressed store read beyond its nearest reference frame — the deeper
	// frames a history codec extrapolates from, held as the blocks they
	// changed: shared arrays and blocks counted once, with the frames' block
	// indices. The store holds them, so they are inside PeakResident: this is
	// the part of it a one-reference chain would not have.
	HistoryBytes int64
	// IndexBytes is the part of StoredBytes that is the patterns' shared
	// index (varint.EncodeCSRIndices), counted once as the paper counts it
	// (compressed store only). The arena never holds it, so neither
	// PeakResident nor a memory budget includes it: what the chain's blobs
	// take is StoredBytes − IndexBytes.
	IndexBytes int64
	// RepeatSteps counts, per tensor, the kept steps whose values are
	// bit-identical to the step above's (compressed store only): repeats,
	// which hold no blob and meet no codec.
	RepeatSteps [nTensors]int

	// Budget accounting (a CompressedStore under SetBudget; the facade's
	// MemBudgetBytes). BudgetBytes echoes the budget (0 = none) so manifests
	// record the constraint PeakResident was held to. The kept steps are the
	// prefix [0, TierKeptSteps), so TierKeptSteps is also the first dropped
	// step when TierDroppedSteps > 0; the two sum to Steps. TierRecomputes
	// counts the dropped steps re-derived from the trajectory during the
	// sweep (distinct from Repairs, which heal corruption).
	BudgetBytes      int64
	TierKeptSteps    int
	TierDroppedSteps int
	TierRecomputes   int64
	// Deprecated: always 0; no store spills under a budget.
	TierDiskSteps int
	// Deprecated: always 0; a budgeted store has no hot rung to leave or
	// return to.
	TierDemotions, TierPromotions int64
}

// Store retains per-step pairs of value arrays written forward and read
// back in reverse: jVals is the first tensor (G in the facade), cVals the
// second (C). All implementations also satisfy the adjoint package's
// JacobianSource interface.
type Store interface {
	// Put records step i's tensors. Steps arrive in increasing order
	// starting at 0. The slices are owned by the caller and copied.
	Put(step int, jVals, cVals []float64) error
	// EndForward marks the end of forward integration; it must be called
	// before the first Fetch.
	EndForward() error
	// Fetch returns step i's tensors. Compressed stores require strictly
	// decreasing fetch order from the last step down to 0.
	Fetch(step int) (jVals, cVals []float64, err error)
	// Release declares step i dead; stores may free its memory.
	Release(step int)
	Stats() Stats
	Close() error
}

// MemStore keeps every step uncompressed in memory — the fastest and most
// memory-hungry strategy (the paper's Figure 1 overhead). Each stored slice
// carries a CRC32C sidecar computed at Put and verified at Fetch, so in-RAM
// bit rot (or a fault injector standing in for it) is detected instead of
// silently propagated into the sensitivities.
//
// It is the reference every other store's bits are compared with, so beyond
// the Put contract, the meter and the attachment (storeBase) it shares
// nothing with them: its sidecars, its quarantine and its copies are its own.
//
// mu orders the reverse sweep's calls (Fetch, Repair, Release) against
// Close, which may race the last fetch of a canceled sweep's fetcher.
type MemStore struct {
	storeBase
	mu          sync.Mutex
	steps       []tensors // nil arrays once released
	sums        [][nTensors]uint32
	quarantined map[int]bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{quarantined: map[int]bool{}} }

// Attach wires telemetry and a fault injector that corrupts stored tensors
// after their checksums are recorded. Call it before the first Put.
func (s *MemStore) Attach(a Attachment) { s.attach(a, "memory") }

// Put implements Store.
func (s *MemStore) Put(step int, jVals, cVals []float64) error {
	vals := tensors{jVals, cVals}
	if err := s.admit(step, vals); err != nil {
		return err
	}
	var own tensors
	var sums [nTensors]uint32
	for i, v := range vals {
		own[i] = append([]float64(nil), v...)
		sums[i] = blobframe.ChecksumFloat64(own[i])
	}
	// Fault injection models bit rot that happens after the checksum was
	// recorded — exactly the window the sidecar exists to cover.
	for _, v := range own {
		s.fault.MutateFloats(step, v)
	}
	s.steps = append(s.steps, own)
	s.sums = append(s.sums, sums)
	s.bumpResident(s.frameBytes)
	return nil
}

// EndForward implements Store.
func (s *MemStore) EndForward() error {
	s.forwardDone = true
	s.stats.StoredBytes = s.stats.RawBytes
	s.ob.storedBytes.Add(float64(s.stats.StoredBytes))
	return nil
}

// Fetch implements Store. Each fetch re-verifies the step's CRC32C sidecars;
// a mismatch quarantines the step and returns a degradable *StepError so
// the adjoint sweep can fall back to recomputation.
func (s *MemStore) Fetch(step int) ([]float64, []float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.forwardDone {
		return nil, nil, &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	}
	if step < 0 || step >= len(s.steps) {
		return nil, nil, fmt.Errorf("jactensor: fetch step %d of %d", step, len(s.steps))
	}
	vals := s.steps[step]
	if vals[0] == nil {
		return nil, nil, fmt.Errorf("jactensor: step %d already released", step)
	}
	if s.quarantined[step] {
		return nil, nil, corruptErr(step, "fetch", "", errQuarantined)
	}
	for i, v := range vals {
		if got, want := blobframe.ChecksumFloat64(v), s.sums[step][i]; got != want {
			s.quarantined[step] = true
			s.noteCorrupt()
			return nil, nil, corruptErr(step, "fetch", tensorName(i),
				fmt.Errorf("checksum %#08x, want %#08x", got, want))
		}
	}
	s.ob.fetches.Inc()
	return vals[0], vals[1], nil
}

// Repair implements Repairer: it installs recomputed plaintext for a
// quarantined step and refreshes the sidecars.
func (s *MemStore) Repair(step int, jVals, cVals []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < 0 || step >= len(s.steps) {
		return
	}
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	for i, v := range (tensors{jVals, cVals}) {
		s.steps[step][i] = append([]float64(nil), v...)
		s.sums[step][i] = blobframe.ChecksumFloat64(s.steps[step][i])
	}
	delete(s.quarantined, step)
	s.stats.Repairs++
}

// Release implements Store.
func (s *MemStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step >= 0 && step < len(s.steps) {
		if s.steps[step][0] != nil {
			s.bumpResident(-s.frameBytes)
		}
		s.steps[step] = tensors{}
	}
}

// Stats implements Store.
func (s *MemStore) Stats() Stats { return s.stats }

// Close implements Store; later fetches fail. The steps leave the meter.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.steps = nil
	s.bumpResident(-s.resident)
	return nil
}
