package jactensor

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
	"masc/internal/tiersched"
)

// sealedStream folds a store's sealed blobs, in step order, into one FNV-64a
// hash: every J blob then every C blob of a chained store; for a tiered store
// each step's rung, followed by its blobs when it rests on the compressed
// rung (so the hash pins the placement as well as the bytes). This accessor
// is the only part of the pin that knows where a store keeps its blobs.
func sealedStream(st Store) uint64 {
	h := fnv.New64a()
	switch s := st.(type) {
	case *CompressedStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, rec := range s.steps {
			h.Write(rec.jBlob)
			h.Write(rec.cBlob)
		}
	case *TieredStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, rec := range s.steps {
			h.Write([]byte{byte(rec.tier)})
			if rec.tier == tiersched.Compressed {
				h.Write(rec.jBlob)
				h.Write(rec.cBlob)
			}
		}
	default:
		panic(fmt.Sprintf("sealedStream: %T holds no sealed blobs", st))
	}
	return h.Sum64()
}

// pinnedBytes is what TestPinnedStoreBytes records of one store after a full
// forward pass and a serial reverse sweep.
type pinnedBytes struct {
	stored int64  // Stats.StoredBytes after EndForward
	peak   int64  // Stats.PeakResident after the sweep; -1 = scheduling-dependent, not pinned
	stream uint64 // sealedStream after EndForward
}

// TestPinnedStoreBytes pins, to the byte, what the blob-holding stores keep:
// the stored byte count, the modelled resident peak and a hash of the sealed
// blob stream, for two fixtures under the five store shapes the facade
// builds. A change to the store layer that is meant to keep the bytes may not
// re-record them. Every row but chained/tiered (which holds no blob on the
// compressed rung under this clock: its pin is commit 3fede77's) was recorded
// when masczip's hits became "the region's hit predictor is exact", coded in
// runs: that changes self-contained blobs as well as chained ones, so the
// tiered selfcontained row moved with the rest. The pipelined store's
// peak depends on how far the worker and the prefetch run ahead, so it is
// bounded (by the synchronous peak plus the frames the queue can hold), not
// pinned.
func TestPinnedStoreBytes(t *testing.T) {
	const steps = 120
	type fixture struct {
		name   string
		jp, cp *sparse.Pattern
		js, cs [][]float64
	}
	var fixtures []fixture
	{
		jp, cp, js, cs := tensorFixture(90, 40, steps)
		fixtures = append(fixtures, fixture{"chained", jp, cp, js, cs})
		jp, cp, js, cs = placementFixture(20, steps)
		fixtures = append(fixtures, fixture{"selfcontained", jp, cp, js, cs})
	}
	const asyncDepth = 2
	shapes := []struct {
		name string
		mk   func(t *testing.T, f fixture) Store
	}{
		{"masc-sync", func(t *testing.T, f fixture) Store {
			return NewCompressedStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp)
		}},
		{"masc-async2", func(t *testing.T, f fixture) Store {
			return NewCompressedStoreAsync(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp, asyncDepth)
		}},
		{"masc-anchors50", func(t *testing.T, f fixture) Store {
			st := NewCompressedStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp)
			st.SetAnchorEvery(50)
			return st
		}},
		{"auto", func(t *testing.T, f fixture) Store {
			st, err := NewAutoStore(AutoConfig{
				Candidates: []AutoCandidate{{Name: "masc+markov", New: func() (compress.Compressor, compress.Compressor) {
					mo := masczip.Options{Markov: true}
					return masczip.New(f.jp, mo), masczip.New(f.cp, mo)
				}}},
				JPat: f.jp, CPat: f.cp,
			})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"tiered-quarter-diskless", func(t *testing.T, f fixture) Store {
			raw := int64(8*(len(f.js[0])+len(f.cs[0]))) * steps
			st := NewTieredStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), TieredConfig{
				BudgetBytes: raw / 4, DisableDisk: true, DisablePrefetch: true,
				Model: tiersched.NewModel(tiersched.NewFakeClock(time.Microsecond)),
			})
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
			return st
		}},
	}
	want := map[string]pinnedBytes{
		"chained/masc-sync":                     {stored: 41078, peak: 46735, stream: 0x10a7863c304af332},
		"chained/masc-async2":                   {stored: 41078, peak: -1, stream: 0x10a7863c304af332},
		"chained/masc-anchors50":                {stored: 47187, peak: 58972, stream: 0xebdd6414928e5f87},
		"chained/auto":                          {stored: 40493, peak: 46150, stream: 0x7dace2f927f1ea8f},
		"chained/tiered-quarter-diskless":       {stored: 91920, peak: 98353, stream: 0x4222caa0e70ae523},
		"selfcontained/masc-sync":               {stored: 79269, peak: 82043, stream: 0x9e4f03c8a102937f},
		"selfcontained/masc-async2":             {stored: 79269, peak: -1, stream: 0x9e4f03c8a102937f},
		"selfcontained/masc-anchors50":          {stored: 80575, peak: 86357, stream: 0x014f7e71ed8e6dde},
		"selfcontained/auto":                    {stored: 80642, peak: 83416, stream: 0xda4a6bc562cd049b},
		"selfcontained/tiered-quarter-diskless": {stored: 43882, peak: 47870, stream: 0x67b0657dcfef626d},
	}
	for _, f := range fixtures {
		frame := int64(8 * (len(f.js[0]) + len(f.cs[0])))
		syncPeak := want[f.name+"/masc-sync"].peak
		for _, sh := range shapes {
			name := f.name + "/" + sh.name
			t.Run(name, func(t *testing.T) {
				st := sh.mk(t, f)
				defer st.Close()
				for i := range f.js {
					if err := st.Put(i, f.js[i], f.cs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatal(err)
				}
				got := pinnedBytes{stored: st.Stats().StoredBytes, stream: sealedStream(st)}
				for i := steps - 1; i >= 0; i-- {
					if _, _, err := st.Fetch(i); err != nil {
						t.Fatalf("fetch %d: %v", i, err)
					}
					if i < steps-1 {
						st.Release(i + 1)
					}
				}
				st.Release(0)
				got.peak = st.Stats().PeakResident
				w := want[name]
				if w.peak < 0 {
					// Forward: the frame being admitted plus the queued and
					// the running job's; reverse: one prefetch ahead.
					if limit := syncPeak + (asyncDepth+2)*frame; got.peak > limit || got.peak < syncPeak-frame {
						t.Errorf("PeakResident %d outside [%d, %d]", got.peak, syncPeak-frame, limit)
					}
					got.peak = -1
				}
				if got != w {
					t.Errorf("got  {stored: %d, peak: %d, stream: %#016x}\nwant {stored: %d, peak: %d, stream: %#016x}",
						got.stored, got.peak, got.stream, w.stored, w.peak, w.stream)
				}
			})
		}
	}
}
