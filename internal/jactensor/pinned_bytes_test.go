package jactensor

import (
	"fmt"
	"hash/fnv"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
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
			if rec.tier == TierCompressed {
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
// Every row was re-recorded when masczip began to length-code runs of misses
// that keep their symbol (a revision whose blobs carry an extension byte, and
// leave out the chunk count where there is one chunk). The chain rows hold
// 10 % less on "voltage" (sync 158471 → 142907 B), whose C is a function of
// its states, 5 % less on "selfcontained", which moves linearly in the step
// (28041 → 26546), and under 0.4 % less on "chained", a random walk no order
// predicts and where few misses keep their symbol (39483 → 39435). The tiered
// rows hold self-contained blobs, predicted from zeros, 2.4 % shorter on
// "voltage" alone; the ladder places steps by their blobs' sizes, so what it
// holds moves otherwise: voltage/tiered 0.9 % more (371057 → 374450),
// selfcontained/tiered 1.8 % less, and chained/tiered — no blob on the
// compressed rung — the same bytes and stream, its peak 57 B
// lower. The chain rows' peaks were re-recorded alone when the history window
// began to hold the frames past the nearest in blocks: every value of these
// fixtures' second tensor moves each step, so a block is rarely shared and a
// frame in blocks costs its index and the padding of its last block beside
// its values — the peaks rose 1.3 % on "voltage" (sync 242116 → 245332),
// 2.7 % on "chained" (63476 → 65172) and 3.1 % on "selfcontained"
// (34600 → 35656); the benchmark's tensors, whose frames share most blocks,
// hold 7.6 % less. The pipelined store's peak depends on how far the worker
// and the prefetch run ahead, so it is bounded (by the synchronous peak plus
// the frames the queue can hold, each at its cost in blocks), not pinned.
// Every row was re-recorded again when masczip began to code residual lengths
// with a table per region (a second extension bit): the chain rows hold 5.0 %
// less on "voltage" (sync 142907 → 135722 B), 3.6 % less on "chained"
// (39435 → 38030) and 17 % less on "selfcontained" (26546 → 22146);
// voltage/tiered holds 0.1 % less (374450 → 374048) and
// selfcontained/tiered 0.7 % more (43807 → 44106), the ladder placing steps
// by their blobs' sizes; chained/tiered keeps its bytes and stream, its peak
// 151 B lower. Every row was re-recorded when masczip's header became one
// byte (two before: a flags byte and an extension byte): each blob is one
// byte shorter and otherwise the same, so the chain rows hold 240 B less
// (two blobs a step, 120 steps), peaks too, the tiered rows 2 B less a step
// on the compressed rung (voltage/tiered −60 B, selfcontained/tiered −64 B)
// and every tiered peak 2 B less; chained/tiered keeps its bytes and stream.
// The tiered rows were named tiered-quarter-diskless until the ladder lost
// its disk rung. They never used it, and their bytes, peaks and placements
// did not move; only their streams were re-recorded, because the hash folds
// in each step's rung number and the recompute rung's went from 3 to 2
// (hashing 3 for it reproduces the old streams). Two markov-sync rows were
// re-recorded when a Markov blob began to carry its selector table only where
// the selectors it saves outweigh it (the rest written best-fit, in the
// calibration form): "selfcontained", whose blobs with few misses went
// table-less, holds 1.4 % less (23198 → 22865 B); "chained", a random walk,
// 0.07 % more (37306 → 37332), where a few blobs the estimate priced
// table-less would have been shorter with it; "voltage" codes every blob
// between calibrations with its table, as before, and keeps its bytes.
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
		{"tiered-quarter", func(t *testing.T, f fixture) Store {
			raw := int64(8*(len(f.js[0])+len(f.cs[0]))) * steps
			st := NewTieredStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), TieredConfig{
				BudgetBytes: raw / 4, DisablePrefetch: true,
			})
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
			return st
		}},
	}
	want := map[string]pinnedBytes{
		"voltage/masc-sync":            {stored: 135482, peak: 237907, stream: 0xd69fb1ffc8ce0b26},
		"voltage/masc-async2":          {stored: 135482, peak: -1, stream: 0xd69fb1ffc8ce0b26},
		"voltage/masc-anchors50":       {stored: 166822, peak: 294575, stream: 0x182af7cfec98adcb},
		"voltage/markov-sync":          {stored: 131591, peak: 234016, stream: 0x917b8bbdbc3fa7b6},
		"voltage/tiered-quarter":       {stored: 373988, peak: 403774, stream: 0xdbdfce8b54e3ee1a},
		"chained/masc-sync":            {stored: 37790, peak: 63527, stream: 0x23371d7bcdb13cf0},
		"chained/masc-async2":          {stored: 37790, peak: -1, stream: 0x23371d7bcdb13cf0},
		"chained/masc-anchors50":       {stored: 43443, peak: 75052, stream: 0x9cf5b88596dec50b},
		"chained/markov-sync":          {stored: 37332, peak: 63069, stream: 0x32133e7454148720},
		"chained/tiered-quarter":       {stored: 91920, peak: 98102, stream: 0xe2218781b7b7c29d},
		"selfcontained/masc-sync":      {stored: 21906, peak: 31016, stream: 0x9d069c5ae46a7a8f},
		"selfcontained/masc-async2":    {stored: 21906, peak: -1, stream: 0x9d069c5ae46a7a8f},
		"selfcontained/masc-anchors50": {stored: 24881, peak: 37447, stream: 0x2f34ead3fd556a2b},
		"selfcontained/markov-sync":    {stored: 22865, peak: 31975, stream: 0x1ca6063076f522c4},
		"selfcontained/tiered-quarter": {stored: 44042, peak: 47858, stream: 0xe8261cff1ed6ace0},
	}
	for _, f := range fixtures {
		// A frame at what it costs in the window: in blocks, none shared.
		frame := max(int64(8*(len(f.js[0])+len(f.cs[0]))), blockedBytes(len(f.js[0]))+blockedBytes(len(f.cs[0])))
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
