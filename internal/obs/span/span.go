// Package span implements a causal span tree for the MASC pipeline: every
// phase of a run (forward step, jacobian put/compress, adjoint sweep,
// fetch, solve, tier decision, disk retry, …) records a Span with nanosecond
// start/end times, a parent link, and a handful of typed int64 attributes.
//
// The design follows the obs package's telemetry contract:
//
//   - nil-safe: a nil *Recorder turns Start/StartAt into a zero Span whose
//     methods are no-ops, so instrumented code needs no "is tracing on?"
//     branches;
//   - zero-alloc: a Span is a value type holding the Record being built; the
//     attribute array is fixed-size and keys are code-controlled constants,
//     so neither the enabled nor the disabled path touches the heap;
//   - bounded: finished spans land in a fixed-capacity ring buffer; when the
//     ring is full the oldest record is overwritten and a dropped counter is
//     bumped, so a long run can never exhaust memory through tracing.
//
// The wall clock is injectable (SetClock) so exports are golden-testable.
package span

import (
	"sync"
	"sync/atomic"
	"time"
)

// ID identifies one span. IDs are assigned from an atomic counter starting
// at 1; 0 means "no span" and is used as the root parent.
type ID uint64

// Kind classifies a span. The enum mirrors the causal tree of a MASC run:
// run → forward{step → put/compress} → adjoint{sweep →
// fetch/solve/param} → tier decision → disk retry, plus codec-level
// encode/decode underneath compress/decompress.
type Kind uint8

const (
	KindNone Kind = iota
	Run
	Forward
	DC
	Step
	Put
	Compress
	Decompress
	Adjoint
	Sweep
	Fetch
	Solve
	ParamEval
	ParamShard
	TierDecision
	Recompute
	Quarantine
	Repair
	DiskRetry
	Encode
	Decode
	numKinds
)

var kindNames = [numKinds]string{
	KindNone:     "none",
	Run:          "run",
	Forward:      "forward",
	DC:           "dc",
	Step:         "step",
	Put:          "put",
	Compress:     "compress",
	Decompress:   "decompress",
	Adjoint:      "adjoint",
	Sweep:        "sweep",
	Fetch:        "fetch",
	Solve:        "solve",
	ParamEval:    "param_eval",
	ParamShard:   "param_shard",
	TierDecision: "tier_decision",
	Recompute:    "recompute",
	Quarantine:   "quarantine",
	Repair:       "repair",
	DiskRetry:    "disk_retry",
	Encode:       "encode",
	Decode:       "decode",
}

// String returns the snake_case name of the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// MaxAttrs is the fixed attribute capacity of a Record; Attr calls past it
// are silently dropped (span records must never allocate).
const MaxAttrs = 6

// Attr is one typed key/value attribute. Values are int64 only: byte
// counts, nanosecond durations, step numbers, tier enums, booleans as 0/1.
type Attr struct {
	Key string
	Val int64
}

// Record is one finished span as stored in the ring buffer.
type Record struct {
	ID     ID
	Parent ID
	Kind   Kind
	NAttr  uint8
	Step   int32 // pipeline step the span belongs to, -1 when not step-scoped
	Start  int64 // clock nanoseconds
	End    int64
	Attrs  [MaxAttrs]Attr
}

// AttrList returns the populated attributes.
func (r *Record) AttrList() []Attr { return r.Attrs[:r.NAttr] }

// Dur returns End-Start in nanoseconds.
func (r *Record) Dur() int64 { return r.End - r.Start }

// DefaultCapacity is the ring size used when NewRecorder is given cap <= 0:
// a scale-0.1 run emits a few thousand spans, so 16Ki keeps whole runs while
// bounding the recorder at a few MiB.
const DefaultCapacity = 1 << 14

// Recorder collects finished spans into a bounded ring buffer. All methods
// are safe for concurrent use and nil-safe.
type Recorder struct {
	now    func() int64
	nextID atomic.Uint64
	scope  atomic.Uint64

	mu      sync.Mutex
	ring    []Record
	total   uint64 // records ever pushed
	dropped uint64 // records overwritten before being read
	sink    func(*Record)
}

// NewRecorder returns a recorder with the given ring capacity
// (DefaultCapacity when cap <= 0), reading time.Now.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		now:  func() int64 { return time.Now().UnixNano() },
		ring: make([]Record, capacity),
	}
}

// SetClock replaces the nanosecond wall clock. Call before recording; tests
// use it to produce deterministic exports.
func (r *Recorder) SetClock(now func() int64) {
	if r == nil || now == nil {
		return
	}
	r.now = now
}

// SetSink installs a hook invoked (under the recorder mutex, in push order)
// for every finished span; the SSE broadcaster uses it to live-stream spans.
// The record pointer is only valid for the duration of the call. The sink
// must be fast and must not call back into the recorder.
func (r *Recorder) SetSink(fn func(*Record)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// Now returns the recorder's clock reading (0 when r is nil).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// SetScope publishes a dynamic parent scope (typically the current forward
// step span) that stores use to parent their put/compress spans. Only one
// goroutine — the forward loop — writes it; readers fall back to their fixed
// scope when it is 0.
func (r *Recorder) SetScope(id ID) {
	if r == nil {
		return
	}
	r.scope.Store(uint64(id))
}

// Scope returns the current dynamic parent scope (0 when unset or r nil).
func (r *Recorder) Scope() ID {
	if r == nil {
		return 0
	}
	return ID(r.scope.Load())
}

// Start opens a span under parent. step is the pipeline step (-1 when not
// applicable). A nil recorder returns an inert zero Span.
func (r *Recorder) Start(parent ID, kind Kind, step int) Span {
	if r == nil {
		return Span{}
	}
	return r.StartAt(parent, kind, step, r.now())
}

// StartAt is Start with an explicit start time, for spans whose duration was
// measured elsewhere (e.g. a fetch timed on the fetcher goroutine).
func (r *Recorder) StartAt(parent ID, kind Kind, step int, t0 int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, rec: Record{
		ID:     ID(r.nextID.Add(1)),
		Parent: parent,
		Kind:   kind,
		Step:   int32(step),
		Start:  t0,
	}}
}

// Span is a handle on an in-flight span. The zero value is inert: every
// method is a no-op and ID returns 0, so code instrumented against a
// disabled recorder costs a couple of predictable branches and no memory.
// A Span must be ended at most once and not copied after Attr/End.
type Span struct {
	r   *Recorder
	rec Record
}

// ID returns the span's ID (0 for an inert span), used to parent children.
func (s *Span) ID() ID { return s.rec.ID }

// Attr attaches a typed attribute. Calls beyond MaxAttrs are dropped.
func (s *Span) Attr(key string, v int64) {
	if s.r == nil || int(s.rec.NAttr) >= MaxAttrs {
		return
	}
	s.rec.Attrs[s.rec.NAttr] = Attr{Key: key, Val: v}
	s.rec.NAttr++
}

// End closes the span now and pushes it into the ring. Subsequent End calls
// are no-ops, so "defer sp.End()" composes with early explicit ends.
func (s *Span) End() {
	if s.r == nil {
		return
	}
	s.EndAt(s.r.now())
}

// EndAt is End with an explicit end time.
func (s *Span) EndAt(t1 int64) {
	if s.r == nil {
		return
	}
	s.rec.End = t1
	s.r.push(s.rec)
	s.r = nil
}

// push takes the record by value so an ending Span never escapes to the
// heap (the sink sees a pointer into the ring, which is heap-resident
// already); this is what keeps the enabled path at 0 allocs/op.
func (r *Recorder) push(rec Record) {
	r.mu.Lock()
	i := r.total % uint64(len(r.ring))
	if r.total >= uint64(len(r.ring)) {
		r.dropped++
	}
	r.ring[i] = rec
	r.total++
	if r.sink != nil {
		r.sink(&r.ring[i])
	}
	r.mu.Unlock()
}

// Snapshot returns the retained records in push order (oldest first).
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := uint64(len(r.ring))
	if r.total > capacity {
		out := make([]Record, capacity)
		start := r.total % capacity
		n := copy(out, r.ring[start:])
		copy(out[n:], r.ring[:start])
		return out
	}
	return append([]Record(nil), r.ring[:r.total]...)
}

// Len returns the number of retained records.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total > uint64(len(r.ring)) {
		return len(r.ring)
	}
	return int(r.total)
}

// Total returns the number of spans ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many records were overwritten before export.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
