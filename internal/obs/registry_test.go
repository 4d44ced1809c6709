package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "Requests.")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("reqs_total", "Requests."); again != c {
		t.Fatal("same (name, labels) must return the same handle")
	}

	g := r.Gauge("depth", "Queue depth.")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 4 {
		t.Fatalf("SetMax lowered the gauge to %v", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax = %v, want 9", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "Ops.", "kind", "a")
	b := r.Counter("ops_total", "Ops.", "kind", "b")
	if a == b {
		t.Fatal("different label values must be different series")
	}
	a.Add(1)
	b.Add(2)
	if a.Value() != 1 || b.Value() != 2 {
		t.Fatalf("series bled into each other: %v, %v", a.Value(), b.Value())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", TimingBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All no-ops, no panics:
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if out := r.WritePrometheus(nil); out != nil {
		t.Fatalf("nil registry rendered %q", out)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering one name under two kinds")
		}
	}()
	r.Gauge("m_total", "")
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Mix of same-series and per-worker-series traffic, plus
			// concurrent renders, to drive the race detector through every
			// path.
			c := r.Counter("shared_total", "x")
			h := r.Histogram("lat", "x", TimingBuckets())
			own := r.Gauge("worker", "x", "id", string(rune('a'+w)))
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				own.Set(float64(i))
				if i%100 == 0 {
					_ = r.WritePrometheus(nil)
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "x").Value(); got != workers*iters {
		t.Fatalf("shared counter = %v, want %v", got, workers*iters)
	}
	if got := r.Histogram("lat", "x", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %v, want %v", got, workers*iters)
	}
}

// TestPrometheusGolden pins the exact text exposition output: HELP/TYPE
// ordering, family name sort, series creation order, label rendering, and
// the cumulative histogram encoding.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b_gauge", "A gauge.").Set(2.5)
	c := r.Counter("a_total", "A counter.", "kind", "x")
	c.Add(3)
	r.Counter("a_total", "A counter.", "kind", "y").Add(1)
	h := r.Histogram("c_hist", "A histogram.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	want := strings.Join([]string{
		`# HELP a_total A counter.`,
		`# TYPE a_total counter`,
		`a_total{kind="x"} 3`,
		`a_total{kind="y"} 1`,
		`# HELP b_gauge A gauge.`,
		`# TYPE b_gauge gauge`,
		`b_gauge 2.5`,
		`# HELP c_hist A histogram.`,
		`# TYPE c_hist histogram`,
		`c_hist_bucket{le="1"} 1`,
		`c_hist_bucket{le="10"} 2`,
		`c_hist_bucket{le="+Inf"} 3`,
		`c_hist_sum 105.5`,
		`c_hist_count 3`,
		``,
	}, "\n")
	if got := string(r.WritePrometheus(nil)); got != want {
		t.Fatalf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sz", "", []float64{4}, "store", "mem")
	h.Observe(2)
	got := string(r.WritePrometheus(nil))
	for _, line := range []string{
		`sz_bucket{store="mem",le="4"} 1`,
		`sz_bucket{store="mem",le="+Inf"} 1`,
		`sz_sum{store="mem"} 2`,
		`sz_count{store="mem"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("output missing %q:\n%s", line, got)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "path", "a\"b\\c\nd").Inc()
	got := string(r.WritePrometheus(nil))
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(got, want+"\n") {
		t.Fatalf("escaped label missing %q:\n%s", want, got)
	}
}

func TestAppendFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
	}
	for v, want := range cases {
		if got := string(appendFloat(nil, v)); got != want {
			t.Fatalf("appendFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := string(appendFloat(nil, math.NaN())); got != "NaN" {
		t.Fatalf("appendFloat(NaN) = %q", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Gauge("g", "", "k", "v").Set(7)
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	snap := r.Snapshot()
	if got := snap["c_total"][""]; got != 2.0 {
		t.Fatalf("snapshot counter = %v", got)
	}
	if got := snap["g"][`{k="v"}`]; got != 7.0 {
		t.Fatalf("snapshot gauge = %v", got)
	}
	hs := snap["h"][""].(map[string]any)
	if hs["count"] != uint64(2) || hs["sum"] != 3.5 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
	buckets := hs["buckets"].(map[string]uint64)
	if buckets["1"] != 1 || buckets["+Inf"] != 2 {
		t.Fatalf("snapshot buckets = %+v", buckets)
	}
}

// TestDisabledPathZeroAlloc: telemetry that is off costs no allocation — nil
// handles and nil-registry lookups are what instrumented hot paths call.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var (
		r *Registry
		c *Counter
		g *Gauge
		h *Histogram
	)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		c.AddDuration(time.Millisecond)
		g.Set(1)
		g.SetMax(2)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("nil handles allocate %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = r.Counter("x_total", "")
		_ = r.Gauge("y", "")
	}); n != 0 {
		t.Fatalf("nil Registry lookups allocate %v/op", n)
	}
}
