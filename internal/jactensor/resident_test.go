package jactensor

import (
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/obs"
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
			name: "compressed-async",
			mk: func(t *testing.T) Store {
				return NewCompressedStoreAsync(
					masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 0)
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

// TestCloseEmptiesTheMeter: Close with no sweep takes whatever a store still
// holds off its resident meter, so the masc_store_resident_bytes gauge of
// every store reads 0 after it.
func TestCloseEmptiesTheMeter(t *testing.T) {
	jp, cp, js, cs := tensorFixture(51, 12, 3)
	stores := map[string]func(t *testing.T) Store{
		"memory": func(t *testing.T) Store { return NewMemStore() },
		"disk": func(t *testing.T) Store {
			st, err := NewDiskStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"compressed": func(t *testing.T) Store {
			return NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
		},
	}
	for name, mk := range stores {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			st := mk(t)
			st.(interface{ Attach(Attachment) }).Attach(Attachment{Obs: &obs.Observer{Reg: reg}})
			for i := range js {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
			}
			gauge := reg.Gauge("masc_store_resident_bytes", "", "store", name)
			if gauge.Value() == 0 {
				t.Fatal("the store holds nothing before Close")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if v := gauge.Value(); v != 0 {
				t.Fatalf("masc_store_resident_bytes = %v B after Close, want 0", v)
			}
		})
	}
}
