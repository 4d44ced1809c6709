// Package jactensor manages the Jacobian tensor — per timestep, a pair of
// value arrays produced by forward integration and consumed in reverse by the
// adjoint sweep. The stores are generic over the pair: every j-named
// parameter, field and blob below is the first tensor and every c-named one
// the second. The facade stores (G, C) = (∂f/∂x, ∂q/∂x), what the devices
// produce, and the sweep rebuilds J = G + C/h from it; the benchmark's trace
// still feeds the assembled (J, C).
//
// The package is one core, two placement policies and two raw stores. The
// core (core.go) owns the per-step records, the blob arena, the frame pool
// and the single seal / keep / open-and-decode / quarantine / heal path, and
// every store shares the Put contract, the resident meter and the one Attach
// call (storeBase). CompressedStore is the chain policy over it — the
// paper's Algorithm 2: every blob in RAM, each predicted from the steps above
// it (as many as its codecs read, held in a window of plaintext frames), sync
// or pipelined, with window views (StoreSlice), over the codecs its caller
// names. TieredStore is the ladder
// policy: it holds a memory budget by placing each step on RAM, compressed
// RAM, disk or recompute. MemStore (raw in-memory, the reference the others
// are compared with) and DiskStore (raw spill) keep plaintext and share only
// storeBase. Full recomputation lives in the adjoint package.
package jactensor

import (
	"errors"
	"fmt"
	"time"

	"masc/internal/blobframe"
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
	// retry policy (disk store only).
	DiskRetries int64
	// FsyncTime is the cumulative wall time spent fsync'ing spill files via
	// SyncSpill (disk and tiered stores); Fsyncs counts those calls. Both are
	// zero unless a run journal is forcing spill durability.
	FsyncTime time.Duration
	Fsyncs    int64
	// AnchorBytes is the plaintext bytes currently retained as window
	// anchor frames (compressed store with SetAnchorEvery). Anchors count
	// toward PeakResident: they are real resident memory the windowed
	// sweep pays for.
	AnchorBytes int64
	// HistoryBytes is the most plaintext any one seal or decode of the
	// compressed store read beyond its nearest reference frame — the deeper
	// frames a history codec extrapolates from, shared arrays counted once.
	// The store holds them, so they are inside PeakResident: this is the part
	// of it a one-reference chain would not have.
	HistoryBytes int64

	// Tiered-store placement accounting (TieredStore only). The per-tier
	// step/byte gauges snapshot the live placement at the last Stats or
	// EndForward call; the counters accumulate over the run. BudgetBytes
	// echoes the configured budget (0 = unlimited) so manifests record the
	// constraint PeakResident was held to.
	BudgetBytes         int64
	TierHotSteps        int
	TierCompressedSteps int
	TierDiskSteps       int
	TierDroppedSteps    int
	TierHotBytes        int64
	TierCompressedBytes int64
	TierDiskBytes       int64
	// TierDemotions counts rung changes under budget pressure — one per
	// step that left the hot tier, plus one per blob later evicted from the
	// compressed rung; TierDirectDrops counts the steps among them that
	// went from the hot tier straight to the recompute rung without ever
	// meeting the codec; TierPromotions counts re-materializations during
	// the reverse sweep; TierRecomputes counts deliberately-dropped steps
	// re-derived from the trajectory (distinct from Repairs, which heal
	// corruption).
	TierDemotions   int64
	TierDirectDrops int64
	TierPromotions  int64
	TierRecomputes  int64
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
type MemStore struct {
	storeBase
	j, c         [][]float64
	jSums, cSums []uint32
	quarantined  map[int]bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{quarantined: map[int]bool{}} }

// Attach wires telemetry and a fault injector that corrupts stored tensors
// after their checksums are recorded. Call it before the first Put.
func (s *MemStore) Attach(a Attachment) { s.attach(a, "memory") }

// Put implements Store.
func (s *MemStore) Put(step int, jVals, cVals []float64) error {
	if err := s.admit(step, jVals, cVals); err != nil {
		return err
	}
	jCopy := append([]float64(nil), jVals...)
	cCopy := append([]float64(nil), cVals...)
	s.jSums = append(s.jSums, blobframe.ChecksumFloat64(jCopy))
	s.cSums = append(s.cSums, blobframe.ChecksumFloat64(cCopy))
	// Fault injection models bit rot that happens after the checksum was
	// recorded — exactly the window the sidecar exists to cover.
	s.fault.MutateFloats(step, jCopy)
	s.fault.MutateFloats(step, cCopy)
	s.j = append(s.j, jCopy)
	s.c = append(s.c, cCopy)
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

// Fetch implements Store. Each fetch re-verifies the step's CRC32C sidecar;
// a mismatch quarantines the step and returns a degradable *StepError so
// the adjoint sweep can fall back to recomputation.
func (s *MemStore) Fetch(step int) ([]float64, []float64, error) {
	if !s.forwardDone {
		return nil, nil, &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	}
	if step < 0 || step >= len(s.j) {
		return nil, nil, fmt.Errorf("jactensor: fetch step %d of %d", step, len(s.j))
	}
	if s.j[step] == nil {
		return nil, nil, fmt.Errorf("jactensor: step %d already released", step)
	}
	if s.quarantined[step] {
		return nil, nil, corruptErr(step, "fetch", "", errQuarantined)
	}
	if got := blobframe.ChecksumFloat64(s.j[step]); got != s.jSums[step] {
		return nil, nil, s.quarantine(step, "J", got, s.jSums[step])
	}
	if got := blobframe.ChecksumFloat64(s.c[step]); got != s.cSums[step] {
		return nil, nil, s.quarantine(step, "C", got, s.cSums[step])
	}
	s.ob.fetches.Inc()
	return s.j[step], s.c[step], nil
}

// quarantine marks a step corrupt, counts it, and builds the typed error.
func (s *MemStore) quarantine(step int, tensor string, got, want uint32) error {
	s.quarantined[step] = true
	s.noteCorrupt()
	return corruptErr(step, "fetch", tensor,
		fmt.Errorf("checksum %#08x, want %#08x", got, want))
}

// Repair implements Repairer: it installs recomputed plaintext for a
// quarantined step and refreshes the sidecar.
func (s *MemStore) Repair(step int, jVals, cVals []float64) {
	if step < 0 || step >= len(s.j) {
		return
	}
	s.j[step] = append([]float64(nil), jVals...)
	s.c[step] = append([]float64(nil), cVals...)
	s.jSums[step] = blobframe.ChecksumFloat64(s.j[step])
	s.cSums[step] = blobframe.ChecksumFloat64(s.c[step])
	delete(s.quarantined, step)
	s.stats.Repairs++
}

// Release implements Store.
func (s *MemStore) Release(step int) {
	if step >= 0 && step < len(s.j) {
		if s.j[step] != nil {
			s.bumpResident(-int64(8 * (len(s.j[step]) + len(s.c[step]))))
		}
		s.j[step] = nil
		s.c[step] = nil
	}
}

// Stats implements Store.
func (s *MemStore) Stats() Stats { return s.stats }

// Close implements Store.
func (s *MemStore) Close() error {
	s.j, s.c = nil, nil
	return nil
}
