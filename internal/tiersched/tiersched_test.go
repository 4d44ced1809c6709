package tiersched

import (
	"testing"
	"time"
)

func TestFakeClockDeterministic(t *testing.T) {
	a := NewFakeClock(time.Millisecond)
	b := NewFakeClock(time.Millisecond)
	for i := 0; i < 10; i++ {
		if !a.Now().Equal(b.Now()) {
			t.Fatalf("clocks diverged at call %d", i)
		}
	}
	start := a.Now()
	if d := a.Now().Sub(start); d != time.Millisecond {
		t.Fatalf("tick = %v, want 1ms", d)
	}
	a.Advance(time.Second)
	if d := a.Now().Sub(start); d != time.Second+2*time.Millisecond {
		t.Fatalf("advance: got %v", d)
	}
}

func TestTierString(t *testing.T) {
	want := map[Tier]string{Hot: "hot", Compressed: "compressed", Disk: "disk", Dropped: "dropped"}
	for tier, s := range want {
		if tier.String() != s {
			t.Fatalf("Tier(%d).String() = %q, want %q", tier, tier.String(), s)
		}
	}
	if Tier(99).String() != "unknown" {
		t.Fatalf("unknown tier string: %q", Tier(99).String())
	}
}

func TestModelRates(t *testing.T) {
	m := NewModel(NewFakeClock(time.Microsecond))
	m.ObserveDecompress(1000, time.Millisecond)
	m.ObserveDecompress(1000, 3*time.Millisecond)
	snap := m.Snapshot()
	// 4ms over 2000 bytes = 2µs/byte.
	if got, want := snap.DecompressSecPerByte, 2e-6; !close(got, want) {
		t.Fatalf("decompress rate = %g, want %g", got, want)
	}
	if snap.DecompressSamples != 2 {
		t.Fatalf("samples = %d", snap.DecompressSamples)
	}
	if snap.DiskWriteSecPerByte != 0 || snap.RecomputeSecPerStep != 0 {
		t.Fatalf("unmeasured rates should be zero: %+v", snap)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12+1e-9*b
}

// TestSpillDecisions locks down the demotion decision table: the
// conservative default is Disk, the model flips to Dropped only when a
// measured recomputation is cheaper than the measured spill round-trip, and
// losing the spill device forces Dropped regardless.
func TestSpillDecisions(t *testing.T) {
	m := NewModel(nil)
	if got := m.ExplainSpill(100, 800, true).Target; got != Disk {
		t.Fatalf("unmeasured model: %v, want disk", got)
	}
	if got := m.ExplainSpill(100, 800, false).Target; got != Dropped {
		t.Fatalf("no disk: %v, want dropped", got)
	}

	// Disk round-trip: write+read 100B at 2µs/byte each = 400µs, decompress
	// 800B at 1µs/byte = 800µs → 1200µs total.
	m.ObserveDiskWrite(1000, 2*time.Millisecond)
	m.ObserveDiskRead(1000, 2*time.Millisecond)
	m.ObserveDecompress(1000, time.Millisecond)

	m.ObserveRecompute(5 * time.Millisecond) // 5000µs > 1200µs → keep disk
	if got := m.ExplainSpill(100, 800, true).Target; got != Disk {
		t.Fatalf("expensive recompute: %v, want disk", got)
	}

	cheap := NewModel(nil)
	cheap.ObserveDiskWrite(1000, 2*time.Millisecond)
	cheap.ObserveDiskRead(1000, 2*time.Millisecond)
	cheap.ObserveDecompress(1000, time.Millisecond)
	cheap.ObserveRecompute(100 * time.Microsecond) // 100µs < 1200µs → drop
	if got := cheap.ExplainSpill(100, 800, true).Target; got != Dropped {
		t.Fatalf("cheap recompute: %v, want dropped", got)
	}
}

// TestDecisionsReproducible drives two models through the same sequence of
// injected-clock measurements and asserts they reach identical decisions —
// the acceptance criterion that cost-model choices are deterministic under
// the injected clock.
func TestDecisionsReproducible(t *testing.T) {
	build := func() *Model {
		clk := NewFakeClock(50 * time.Microsecond)
		m := NewModel(clk)
		for i := 0; i < 8; i++ {
			t0 := m.Now()
			m.ObserveDecompress(4096, m.Now().Sub(t0))
			t0 = m.Now()
			m.ObserveDiskWrite(512, m.Now().Sub(t0))
			m.ObserveForwardStep(m.Now().Sub(t0))
			if i >= 4 {
				m.ObserveRecompute(m.Now().Sub(t0))
			}
		}
		return m
	}
	a, b := build(), build()
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("snapshots diverged:\n%+v\n%+v", a.Snapshot(), b.Snapshot())
	}
	for _, blob := range []int{64, 512, 4096} {
		for _, diskOK := range []bool{true, false} {
			if ga, gb := a.ExplainSpill(blob, 8*blob, diskOK), b.ExplainSpill(blob, 8*blob, diskOK); ga != gb {
				t.Fatalf("ExplainSpill(%d, %v) diverged: %+v vs %+v", blob, diskOK, ga, gb)
			}
		}
	}
}

// TestRecomputePriceSources pins the two-source rule of the recompute price:
// forward steps price a recomputation only until one has really been
// measured; from then on the measured mean stands alone, so a proxy sample
// fed later — the forward pass of a resumed or repeated run, say — cannot
// drag reverse-phase decisions back toward a whole Newton solve.
func TestRecomputePriceSources(t *testing.T) {
	m := NewModel(nil)
	// Spill round-trip for a 100 B blob of an 800 B frame: 2·100·1µs = 200µs.
	m.ObserveDiskWrite(1000, time.Millisecond)
	m.ObserveDiskRead(1000, time.Millisecond)

	m.ObserveForwardStep(480 * time.Microsecond)
	proxy := m.ExplainSpill(100, 800, true)
	if proxy.Target != Disk || proxy.RecomputeNS != 480_000 || !proxy.Measured {
		t.Fatalf("proxy-priced decision = %+v, want disk at 480µs", proxy)
	}

	m.ObserveRecompute(49 * time.Microsecond)
	real := m.ExplainSpill(100, 800, true)
	if real.Target != Dropped || real.RecomputeNS != 49_000 {
		t.Fatalf("measured decision = %+v, want dropped at 49µs (not the 264µs mix)", real)
	}

	m.ObserveForwardStep(480 * time.Microsecond)
	m.ObserveForwardStep(10 * time.Millisecond)
	if after := m.ExplainSpill(100, 800, true); after != real {
		t.Fatalf("a proxy sample after a real one moved the decision: %+v → %+v", real, after)
	}
	snap := m.Snapshot()
	if snap.RecomputeSamples != 1 || snap.ForwardStepSamples != 3 {
		t.Fatalf("samples = %d real / %d proxy, want 1 / 3", snap.RecomputeSamples, snap.ForwardStepSamples)
	}
}
