package jactensor

import (
	"fmt"
	"testing"

	"masc/internal/compress/masczip"
)

// TestPeakResidentModel pins the resident-memory accounting the three
// strategies share: every store reports a nonzero peak after a full
// forward+reverse pass, the peak uses the same byte model (so the values
// are comparable in benchmark tables), and the strategy ordering the
// paper's Figure 7 relies on holds — raw memory retains everything,
// disk retains only stream buffers, compression sits in between.
func TestPeakResidentModel(t *testing.T) {
	const n, steps = 60, 18
	jp, cp, js, cs := tensorFixture(50, n, steps)
	stepBytes := int64(8 * (len(js[0]) + len(cs[0])))
	raw := stepBytes * int64(steps)

	cases := []struct {
		name  string
		mk    func(t *testing.T) Store
		check func(t *testing.T, peak int64)
	}{
		{
			name: "memory",
			mk:   func(t *testing.T) Store { return NewMemStore() },
			check: func(t *testing.T, peak int64) {
				// Nothing is released until the reverse sweep, so the peak
				// is exactly the raw tensor.
				if peak != raw {
					t.Fatalf("memory peak = %d, want raw %d", peak, raw)
				}
			},
		},
		{
			name: "disk",
			mk: func(t *testing.T) Store {
				st, err := NewDiskStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			check: func(t *testing.T, peak int64) {
				// Resident state is one encode scratch plus one fetch
				// buffer pair — independent of the step count.
				if peak > 3*stepBytes {
					t.Fatalf("disk peak = %d, want <= 3 steps (%d)", peak, 3*stepBytes)
				}
			},
		},
		{
			name: "compressed",
			mk: func(t *testing.T) Store {
				return NewCompressedStore(
					masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
			},
			check: func(t *testing.T, peak int64) {
				if peak >= raw {
					t.Fatalf("compressed peak = %d, not below raw %d", peak, raw)
				}
				// The reference chain alone keeps one plaintext step
				// resident, so the peak cannot undercut it either.
				if peak < stepBytes {
					t.Fatalf("compressed peak = %d, below one step (%d)", peak, stepBytes)
				}
			},
		},
		{
			name: "compressed-anchored",
			mk: func(t *testing.T) Store {
				st := NewCompressedStore(
					masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
				st.SetAnchorEvery(5) // anchors at 5, 10, 15 → 3 retained frames
				return st
			},
			check: func(t *testing.T, peak int64) {
				// Anchor frames are real resident memory: the peak must
				// cover the three retained frames plus the chain head, or
				// `-mem-budget`-style reporting would lie when W > 1.
				if peak < 4*stepBytes {
					t.Fatalf("anchored peak = %d, misses anchor frames (want >= %d)", peak, 4*stepBytes)
				}
				if peak >= raw {
					t.Fatalf("anchored peak = %d, not below raw %d", peak, raw)
				}
			},
		},
		{
			name: "compressed-async-anchored",
			mk: func(t *testing.T) Store {
				st := NewCompressedStoreAsync(
					masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 2)
				st.SetAnchorEvery(5)
				return st
			},
			check: func(t *testing.T, peak int64) {
				if peak < 4*stepBytes {
					t.Fatalf("async anchored peak = %d, misses anchor frames (want >= %d)", peak, 4*stepBytes)
				}
			},
		},
		{
			name: "compressed-async",
			mk: func(t *testing.T) Store {
				return NewCompressedStoreAsync(
					masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 2)
			},
			check: func(t *testing.T, peak int64) {
				if peak >= raw {
					t.Fatalf("async peak = %d, not below raw %d", peak, raw)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.mk(t)
			fillAndVerify(t, st, js, cs)
			peak := st.Stats().PeakResident
			if peak <= 0 {
				t.Fatalf("PeakResident = %d, want > 0", peak)
			}
			tc.check(t, peak)
		})
	}
}

// TestTieredBudgetEnforced is the budget half of the -mem-budget contract:
// for every budget on the ladder, PeakResident never exceeds the budget
// plus the documented slack — the in-flight frame a Put or Fetch is
// admitting, one sealed blob held alongside its plaintext mid-demotion, and
// the frames the sweep itself holds fetched (the serial pattern keeps two in
// flight). The absurdly tiny budget must degrade to deliberate drops (and
// stay exact through recompute), never overrun the model silently.
func TestTieredBudgetEnforced(t *testing.T) {
	const n, steps = 60, 20
	jp, cp, js, cs := tensorFixture(55, n, steps)
	frame := int64(8 * (len(js[0]) + len(cs[0])))
	raw := frame * steps

	// Slack: up to three live frames (fetched step, the not-yet-released
	// step above it, the one being admitted) plus a blob alongside its
	// plaintext during one demotion, which for values that do not compress
	// outgrows its frame: two frames.
	slack := 5 * frame

	// The last budget is absurdly tiny: recompute rung only.
	for _, budget := range []int64{raw / 2, raw / 4, raw / 8, 4 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			st := newTieredFixture(jp, cp, js, cs, TieredConfig{BudgetBytes: budget})
			for i := range js {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
				if got := st.Stats().PeakResident; got > budget+slack {
					t.Fatalf("forward peak %d exceeds budget %d + slack %d", got, budget, slack)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			for i := len(js) - 1; i >= 0; i-- {
				if _, _, err := st.Fetch(i); err != nil {
					t.Fatalf("fetch %d: %v", i, err)
				}
				if i < len(js)-1 {
					st.Release(i + 1)
				}
			}
			stats := st.Stats()
			if stats.PeakResident > budget+slack {
				t.Fatalf("peak %d exceeds budget %d + slack %d (%+v)", stats.PeakResident, budget, slack, stats)
			}
			if budget <= 4<<10 && (stats.TierDroppedSteps == 0 || stats.TierRecomputes == 0) {
				t.Fatalf("tiny budget never reached the recompute rung: %+v", stats)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTieredUnlimitedBudgetStaysHot: budget 0 disables the ladder — the
// store must behave exactly like MemStore's footprint (everything hot, no
// demotions), so "tiered with no budget" costs nothing over the default.
func TestTieredUnlimitedBudgetStaysHot(t *testing.T) {
	jp, cp, js, cs := tensorFixture(56, 40, 10)
	st := newTieredFixture(jp, cp, js, cs, TieredConfig{})
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	raw := int64(8*(len(js[0])+len(cs[0]))) * int64(len(js))
	if stats.PeakResident != raw {
		t.Fatalf("unlimited peak = %d, want raw %d", stats.PeakResident, raw)
	}
	if stats.TierHotSteps != len(js) || stats.TierDemotions != 0 {
		t.Fatalf("unlimited budget still demoted: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreResidentFallsOnRelease checks the live resident model (not
// just the peak): releasing steps during the reverse sweep must not move
// the recorded peak, and the peak must predate the releases.
func TestMemStoreResidentFallsOnRelease(t *testing.T) {
	_, _, js, cs := tensorFixture(51, 30, 8)
	st := NewMemStore()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	peakBefore := st.Stats().PeakResident
	for i := len(js) - 1; i >= 0; i-- {
		st.Release(i)
	}
	if got := st.Stats().PeakResident; got != peakBefore {
		t.Fatalf("peak moved across releases: %d -> %d", peakBefore, got)
	}
	if st.resident != 0 {
		t.Fatalf("resident = %d after releasing every step, want 0", st.resident)
	}
}

// TestDiskStorePeakCoversFetchBuffers pins the regression the resident
// model fix addressed: the disk store's peak must include the reverse
// sweep's fetch buffers, not just the forward encode scratch.
func TestDiskStorePeakCoversFetchBuffers(t *testing.T) {
	_, _, js, cs := tensorFixture(52, 40, 6)
	st, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	forwardPeak := st.Stats().PeakResident
	if _, _, err := st.Fetch(len(js) - 1); err != nil {
		t.Fatal(err)
	}
	reversePeak := st.Stats().PeakResident
	// Fetch materializes jBuf/cBuf on top of the scratch, so the peak
	// must grow by exactly one decoded step.
	want := forwardPeak + int64(8*(len(js[0])+len(cs[0])))
	if reversePeak != want {
		t.Fatalf("post-fetch peak = %d, want %d (forward %d + one step)", reversePeak, want, forwardPeak)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
