package jactensor

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

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
// blob stream, for three fixtures under the five store shapes the facade
// builds, each with its states attached as the facade attaches them. A change
// to the store layer that is meant to keep the bytes may not re-record them.
// Every row was re-recorded when masczip's residuals became ordered-integer
// distances with an exp-Golomb length: the chain rows hold 19 % less on
// "voltage" (sync 194720 → 158471 B), whose C is a function of its states, 4 %
// less on "chained", a random walk no order predicts (41195 → 39483), and 16 %
// less on "selfcontained", which moves linearly in the step (33260 → 28041).
// The tiered rows hold self-contained blobs only, predicted from zeros, where
// a distance keeps the trailing zeros a window stripped: voltage/tiered 2 %
// less, selfcontained/tiered 1.6 % more (43882 → 44589), and chained/tiered —
// no blob on the compressed rung under this clock — the same bytes and stream,
// its peak 41 B lower: the blob the ladder seals while it places a step is
// shorter. The pipelined store's peak depends on how far the worker and the
// prefetch run ahead, so it is bounded (by the synchronous peak plus the
// frames the queue can hold), not pinned.
func TestPinnedStoreBytes(t *testing.T) {
	const steps = 120
	type fixture struct {
		name       string
		jp, cp     *sparse.Pattern
		js, cs, xs [][]float64
	}
	var fixtures []fixture
	{
		// The first two fixtures' states are the third's walk, cut to their
		// dimension: too few of their entries move for the voltage family to
		// be priced, so the states leave their blobs as they were.
		jp, cp, js, cs, xs := voltageFixture(90, voltageNodes, steps)
		walk := func(n int) [][]float64 {
			out := make([][]float64, len(xs))
			for i, x := range xs {
				out[i] = x[:n]
			}
			return out
		}
		fixtures = append(fixtures, fixture{"voltage", jp, cp, js, cs, xs})
		jp, cp, js, cs = tensorFixture(90, 40, steps)
		fixtures = append(fixtures, fixture{"chained", jp, cp, js, cs, walk(40)})
		jp, cp, js, cs = placementFixture(20, steps)
		fixtures = append(fixtures, fixture{"selfcontained", jp, cp, js, cs, walk(20)})
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
		{"markov-sync", func(t *testing.T, f fixture) Store {
			mo := masczip.Options{Markov: true}
			return NewCompressedStore(masczip.New(f.jp, mo), masczip.New(f.cp, mo), f.jp, f.cp)
		}},
		{"tiered-quarter-diskless", func(t *testing.T, f fixture) Store {
			raw := int64(8*(len(f.js[0])+len(f.cs[0]))) * steps
			st := diskless(NewTieredStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), TieredConfig{
				BudgetBytes: raw / 4, DisablePrefetch: true,
				Model: tiersched.NewModel(tiersched.NewFakeClock(time.Microsecond)),
			}))
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
			return st
		}},
	}
	want := map[string]pinnedBytes{
		"voltage/masc-sync":                     {stored: 158471, peak: 257680, stream: 0x1b6fb3b0810da6d6},
		"voltage/masc-async2":                   {stored: 158471, peak: -1, stream: 0x1b6fb3b0810da6d6},
		"voltage/masc-anchors50":                {stored: 190703, peak: 315240, stream: 0x174dc991c44e07c1},
		"voltage/markov-sync":                   {stored: 145169, peak: 244378, stream: 0xfb825e88c2f21ff8},
		"voltage/tiered-quarter-diskless":       {stored: 371057, peak: 404475, stream: 0x3dd8869fa414d1fc},
		"chained/masc-sync":                     {stored: 39483, peak: 63524, stream: 0x77309e931e0332ec},
		"chained/masc-async2":                   {stored: 39483, peak: -1, stream: 0x77309e931e0332ec},
		"chained/masc-anchors50":                {stored: 45540, peak: 75709, stream: 0x916e8c32ff20e16a},
		"chained/markov-sync":                   {stored: 38923, peak: 62964, stream: 0xfadd9f22d20d8e27},
		"chained/tiered-quarter-diskless":       {stored: 91920, peak: 98312, stream: 0x4222caa0e70ae523},
		"selfcontained/masc-sync":               {stored: 28041, peak: 36095, stream: 0x7b3fc226ab4f0621},
		"selfcontained/masc-async2":             {stored: 28041, peak: -1, stream: 0x7b3fc226ab4f0621},
		"selfcontained/masc-anchors50":          {stored: 31286, peak: 42972, stream: 0x767276749a91e124},
		"selfcontained/markov-sync":             {stored: 29355, peak: 37409, stream: 0x1cb683e9d58defa2},
		"selfcontained/tiered-quarter-diskless": {stored: 44589, peak: 48005, stream: 0xf0b8cbbc67a17dca},
	}
	for _, f := range fixtures {
		frame := int64(8 * (len(f.js[0]) + len(f.cs[0])))
		syncPeak := want[f.name+"/masc-sync"].peak
		for _, sh := range shapes {
			name := f.name + "/" + sh.name
			t.Run(name, func(t *testing.T) {
				st := sh.mk(t, f)
				defer st.Close()
				st.(interface{ Attach(Attachment) }).Attach(stateOfStep(f.xs))
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
