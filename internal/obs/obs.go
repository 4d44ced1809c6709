// Package obs is the MASC pipeline's zero-dependency telemetry layer. It
// bundles orthogonal facilities behind one Observer handle:
//
//   - a concurrent metrics Registry (counters, gauges, histograms) that
//     renders in Prometheus text exposition format and as a JSON snapshot;
//   - a causal span Recorder (internal/obs/span) that records the run's
//     phase tree — forward steps, jacobian put/compress, adjoint sweeps,
//     fetches, tier decisions, disk retries — with nanosecond
//     timing, exportable as Chrome trace-event JSON or JSONL;
//   - an SSE Broadcaster that fans finished spans out to live subscribers;
//   - a run-Manifest writer that serializes the configuration, provenance
//     and final aggregate statistics of a run as one JSON document, so
//     experiments can be compared across runs and machines.
//
// Every type is nil-safe: a nil *Observer, *Registry, *Recorder,
// *Broadcaster, *Counter, *Gauge or *Histogram turns the corresponding call
// into a no-op, so instrumented code needs no "is telemetry on?" branches
// of its own.
//
// This package links no networking. Serving an Observer over HTTP
// (/metrics, /debug/vars, /debug/pprof, /debug/spans, /events) is the job
// of internal/obs/obshttp, which only the commands import.
package obs

import "masc/internal/obs/span"

// Observer bundles the telemetry sinks threaded through the pipeline.
// A nil Observer (or nil fields) disables the corresponding facility.
type Observer struct {
	Reg    *Registry
	Spans  *span.Recorder
	Events *Broadcaster
}

// Registry returns the metrics registry, or nil when o is nil.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// SpanRecorder returns the span recorder, or nil when o is nil.
func (o *Observer) SpanRecorder() *span.Recorder {
	if o == nil {
		return nil
	}
	return o.Spans
}

// Broadcaster returns the SSE event broadcaster, or nil when o is nil.
func (o *Observer) Broadcaster() *Broadcaster {
	if o == nil {
		return nil
	}
	return o.Events
}
