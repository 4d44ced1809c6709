// Package tiersched is the schedule/cost-model layer of the tiered Jacobian
// store. It decides, per captured timestep, which rung of the placement
// ladder — hot RAM, compressed RAM, disk spill, or deliberate
// drop-and-recompute — a step should occupy so the store's modelled resident
// bytes stay under a hard budget, and it prices the rungs with *measured*
// per-operation timings sampled from the first steps of the run (decompress,
// spill write/read, and the recompute price: a forward step's solve time
// until the reverse sweep has measured a real recomputation).
//
// The model never influences the numbers a sweep produces — every tier is
// lossless (recomputation is bit-exact from the trajectory), so placement
// only moves cost between memory and time. That is what lets the tiered
// store promise bit-identical sensitivities for any budget while the
// schedule itself adapts to the machine it runs on.
//
// Time is injected through the Clock interface so tests can drive the model
// with a deterministic FakeClock: identical fed samples produce identical
// decisions, which the reproducibility tests assert.
package tiersched

import (
	"sync"
	"time"
)

// Tier is one rung of the placement ladder, ordered hot to cold.
type Tier uint8

const (
	// Hot keeps the step as raw plaintext frames in RAM (CRC sidecars).
	Hot Tier = iota
	// Compressed keeps the step as self-contained sealed blobs in RAM.
	Compressed
	// Disk keeps the sealed blobs on the spill device; RAM holds offsets.
	Disk
	// Dropped keeps nothing: the step is deliberately recomputed from the
	// trajectory during the reverse sweep.
	Dropped

	// NumTiers is the rung count, for per-tier accounting arrays.
	NumTiers = 4
)

// String returns the metric-label spelling of the tier.
func (t Tier) String() string {
	switch t {
	case Hot:
		return "hot"
	case Compressed:
		return "compressed"
	case Disk:
		return "disk"
	case Dropped:
		return "dropped"
	}
	return "unknown"
}

// Clock abstracts wall time so cost-model measurements are injectable.
type Clock interface{ Now() time.Time }

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Wall returns the real-time clock.
func Wall() Clock { return wallClock{} }

// FakeClock is a deterministic clock for tests: every Now call advances it
// by a fixed tick, so "measured" durations are pure functions of the call
// sequence. Safe for concurrent use.
type FakeClock struct {
	mu   sync.Mutex
	now  time.Time
	tick time.Duration
}

// NewFakeClock returns a clock that advances by tick per Now call.
func NewFakeClock(tick time.Duration) *FakeClock {
	return &FakeClock{now: time.Unix(0, 0), tick: tick}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.tick)
	return c.now
}

// Advance moves the clock forward without an observation.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// RateMeter accumulates (bytes, duration) samples of one operation class —
// the cost-model primitive behind the tier ladder. The zero value is an empty
// meter.
// Not safe for concurrent use on its own; Model serializes access under its
// mutex.
type RateMeter struct {
	ns    float64
	bytes float64
	n     int
}

// Observe feeds one sample.
func (r *RateMeter) Observe(bytes int, d time.Duration) {
	r.ns += float64(d)
	r.bytes += float64(bytes)
	r.n++
}

// PerByte returns seconds per byte, or 0 with no usable samples.
func (r *RateMeter) PerByte() float64 {
	if r.n == 0 || r.bytes <= 0 {
		return 0
	}
	return r.ns / 1e9 / r.bytes
}

// Samples returns the number of fed samples.
func (r *RateMeter) Samples() int { return r.n }

// Bytes returns the total bytes observed.
func (r *RateMeter) Bytes() float64 { return r.bytes }

// Seconds returns the total wall time observed.
func (r *RateMeter) Seconds() float64 { return r.ns / 1e9 }

// Model prices the tier ladder with measured per-op timings. The zero-value
// rates make every unmeasured cost read as 0 — callers resolve those with
// the conservative defaults documented on ExplainSpill. All methods are safe
// for concurrent use.
type Model struct {
	mu    sync.Mutex
	clock Clock

	decompress RateMeter
	diskWrite  RateMeter
	diskRead   RateMeter

	// The recompute price has two sources that are never mixed: forward
	// steps (a whole Newton solve, an upper bound known during capture) and
	// real recomputations (one device evaluation and a Jacobian build,
	// typically ~10x cheaper). Real samples replace the proxy outright.
	// Both meters are fed one "byte" per step, so PerByte is the mean
	// seconds per step.
	recompute RateMeter
	stepProxy RateMeter
}

// NewModel returns an empty model over the given clock (nil = wall clock).
func NewModel(clock Clock) *Model {
	if clock == nil {
		clock = Wall()
	}
	return &Model{clock: clock}
}

// Now reads the model's clock — stores time their operations through this
// so tests can make "measured" durations deterministic.
func (m *Model) Now() time.Time { return m.clock.Now() }

// ObserveDecompress feeds one decompression sample (raw bytes out).
func (m *Model) ObserveDecompress(bytes int, d time.Duration) {
	m.mu.Lock()
	m.decompress.Observe(bytes, d)
	m.mu.Unlock()
}

// ObserveDiskWrite feeds one spill-append sample (blob bytes written).
func (m *Model) ObserveDiskWrite(bytes int, d time.Duration) {
	m.mu.Lock()
	m.diskWrite.Observe(bytes, d)
	m.mu.Unlock()
}

// ObserveDiskRead feeds one spill-read sample (blob bytes read).
func (m *Model) ObserveDiskRead(bytes int, d time.Duration) {
	m.mu.Lock()
	m.diskRead.Observe(bytes, d)
	m.mu.Unlock()
}

// ObserveRecompute feeds the measured cost of one actual recomputation of a
// dropped step. From the first such sample on, the recompute price is the
// mean of these alone.
func (m *Model) ObserveRecompute(d time.Duration) {
	m.mu.Lock()
	m.recompute.Observe(1, d)
	m.mu.Unlock()
}

// ObserveForwardStep feeds one forward integration step's solve time: the
// stand-in recompute price during capture, when no step has been recomputed
// yet. It prices nothing once ObserveRecompute has been called.
func (m *Model) ObserveForwardStep(d time.Duration) {
	m.mu.Lock()
	m.stepProxy.Observe(1, d)
	m.mu.Unlock()
}

// recomputeSec returns the per-step recompute price in seconds: the mean of
// the measured recomputations when there are any, else the forward-step
// proxy, else 0. Callers hold m.mu.
func (m *Model) recomputeSec() float64 {
	if m.recompute.n > 0 {
		return m.recompute.PerByte()
	}
	return m.stepProxy.PerByte()
}

// SpillDecision is one off-RAM placement together with the cost-model inputs
// that produced it, so every demotion is auditable after the fact (the
// tiered store records them as tier_decision span attributes). Costs are
// nanoseconds; 0 means the corresponding side was unmeasured.
type SpillDecision struct {
	Target      Tier
	RecomputeNS int64 // estimated cost of recomputing the step once
	DiskNS      int64 // estimated spill round-trip (write + read + decompress)
	Measured    bool  // both sides were measured; false forced the default
}

// ExplainSpill decides where a step goes when the budget has no room for it
// in RAM: Disk when the measured spill round-trip (write + read +
// decompress) is cheaper than one recomputation — or when either side is
// still unmeasured, since spilling is the conservative choice that preserves
// the step — and Dropped otherwise. blobBytes is the step's sealed blob size,
// or the store's estimate of it when the step has not been compressed: the
// decision is what saves the codec call for a step that will be dropped.
// diskOK reports whether the spill device is usable at all; without it the
// only way down is Dropped. The decision is a pure function of the fed
// samples, so runs with identical (injected-clock) measurements place
// identically.
func (m *Model) ExplainSpill(blobBytes, rawBytes int, diskOK bool) SpillDecision {
	if !diskOK {
		return SpillDecision{Target: Dropped}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.recomputeSec()
	d := SpillDecision{RecomputeNS: int64(rec * 1e9)}
	if rec == 0 || m.diskWrite.n == 0 {
		d.Target = Disk
		return d
	}
	readPB := m.diskRead.PerByte()
	if readPB == 0 {
		readPB = m.diskWrite.PerByte()
	}
	diskSec := (m.diskWrite.PerByte()+readPB)*float64(blobBytes) +
		m.decompress.PerByte()*float64(rawBytes)
	d.DiskNS = int64(diskSec * 1e9)
	d.Measured = true
	if rec < diskSec {
		d.Target = Dropped
	} else {
		d.Target = Disk
	}
	return d
}

// Snapshot is a point-in-time view of the measured rates, for manifests and
// debugging.
type Snapshot struct {
	DecompressSecPerByte float64
	DiskWriteSecPerByte  float64
	DiskReadSecPerByte   float64
	RecomputeSecPerStep  float64 // the price in force: measured, else the proxy
	ForwardStepSec       float64 // the forward-step proxy on its own
	DecompressSamples    int
	DiskWriteSamples     int
	DiskReadSamples      int
	RecomputeSamples     int // real recomputations only
	ForwardStepSamples   int
}

// Snapshot returns the current measured rates.
func (m *Model) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		DecompressSecPerByte: m.decompress.PerByte(),
		DiskWriteSecPerByte:  m.diskWrite.PerByte(),
		DiskReadSecPerByte:   m.diskRead.PerByte(),
		RecomputeSecPerStep:  m.recomputeSec(),
		ForwardStepSec:       m.stepProxy.PerByte(),
		DecompressSamples:    m.decompress.n,
		DiskWriteSamples:     m.diskWrite.n,
		DiskReadSamples:      m.diskRead.n,
		RecomputeSamples:     m.recompute.n,
		ForwardStepSamples:   m.stepProxy.n,
	}
}
