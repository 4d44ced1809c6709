package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Registry holds named metric families and hands out handles to their
// member time series. All methods are safe for concurrent use; the handed
// out Counter/Gauge/Histogram handles are lock-free on the hot path.
//
// Metric names follow the Prometheus convention (snake_case, unit-suffixed,
// `_total` for counters). Labels are passed as alternating key, value
// strings; requesting the same (name, labels) pair twice returns the same
// handle.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fam: map[string]*family{}} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name with its help text and label-keyed series.
// name, help and kind never change after creation. series and order are
// guarded by Registry.mu; order is append-only, so a slice header copied
// under the lock stays safe to read after it is dropped (a later insert
// writes only past the copied length, or into a new backing array).
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]any // label signature -> *Counter | *Gauge | *Histogram
	order  []series       // the same series in creation order
}

// series is one member of a family: its label signature and handle.
type series struct {
	sig string
	m   any
}

// labelSig renders alternating key, value pairs as a stable Prometheus
// label block ("" for none). Keys keep caller order: instrumented code
// passes them consistently, and creation order is what the text format
// preserves anyway.
func labelSig(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the series registered under (name, labels), creating it
// with mk on first use. A nil registry returns the zero handle.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, mk func() any) any {
	if r == nil {
		return nil
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]any{}}
		r.fam[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = mk()
		f.series[sig] = s
		f.order = append(f.order, series{sig: sig, m: s})
	}
	return s
}

// Counter returns the counter registered under name and the optional
// alternating key, value label pairs, creating it on first use. Counters
// are monotonically non-decreasing. A nil registry returns a nil handle
// whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func() any { return &Counter{} })
	if s == nil {
		return nil
	}
	return s.(*Counter)
}

// Gauge returns the gauge registered under name/labels, creating it on
// first use. A nil registry returns a nil handle.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels, func() any { return &Gauge{} })
	if s == nil {
		return nil
	}
	return s.(*Gauge)
}

// Histogram returns the histogram registered under name/labels with the
// given bucket upper bounds (ascending; a trailing +Inf bucket is implied),
// creating it on first use. A nil registry returns a nil handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels, func() any { return newHistogram(buckets) })
	if s == nil {
		return nil
	}
	return s.(*Histogram)
}

// atomicFloat is a lock-free float64 cell.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically non-decreasing metric. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct{ v atomicFloat }

// Add increases the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.v.add(v)
}

// Inc increases the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration adds d expressed in seconds.
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// Value returns the current value (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil Gauge is a no-op.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.store(v)
}

// Add adjusts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.add(v)
}

// SetMax raises the gauge to v when v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.v.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families sorted by name, series in creation
// order.
func (r *Registry) WritePrometheus(b []byte) []byte {
	if r == nil {
		return b
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fam))
	for n := range r.fam {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot each family's series list under the lock: lookup may insert
	// into f.series and f.order while the text is rendered below.
	type famView struct {
		*family
		order []series
	}
	fams := make([]famView, len(names))
	for i, n := range names {
		f := r.fam[n]
		fams[i] = famView{family: f, order: f.order}
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, f.help...)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		for _, sr := range f.order {
			switch m := sr.m.(type) {
			case *Counter:
				b = appendSample(b, f.name, sr.sig, m.Value())
			case *Gauge:
				b = appendSample(b, f.name, sr.sig, m.Value())
			case *Histogram:
				b = m.writePrometheus(b, f.name, sr.sig)
			}
		}
	}
	return b
}

// appendSample writes one "name{labels} value" line.
func appendSample(b []byte, name, sig string, v float64) []byte {
	b = append(b, name...)
	b = append(b, sig...)
	b = append(b, ' ')
	b = appendFloat(b, v)
	return append(b, '\n')
}

// appendFloat formats v the way Prometheus expects (shortest round-trip
// representation; +Inf/-Inf/NaN spelled out).
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Snapshot returns a point-in-time copy of every series as nested maps:
// family name -> label signature ("" for none) -> value. Histograms map to
// {"count": n, "sum": s, "buckets": {le: cumulative}}. The result is used
// by /debug/vars and may be embedded in run manifests.
func (r *Registry) Snapshot() map[string]map[string]any {
	if r == nil {
		return nil
	}
	out := map[string]map[string]any{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.fam {
		sm := map[string]any{}
		for sig, s := range f.series {
			switch m := s.(type) {
			case *Counter:
				sm[sig] = m.Value()
			case *Gauge:
				sm[sig] = m.Value()
			case *Histogram:
				sm[sig] = m.snapshot()
			}
		}
		out[name] = sm
	}
	return out
}
