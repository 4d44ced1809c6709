package jactensor

import (
	"fmt"
	"hash/fnv"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// sealedStream folds a chain store's sealed blobs, in step order, into one
// FNV-64a hash: every step's J blob then its C blob; a step the budget
// dropped has none. This accessor is the only part of the pin that knows
// where a store keeps its blobs.
func sealedStream(st Store) uint64 {
	s, ok := st.(*CompressedStore)
	if !ok {
		panic(fmt.Sprintf("sealedStream: %T holds no sealed blobs", st))
	}
	h := fnv.New64a()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.steps {
		h.Write(rec.blobs[0])
		h.Write(rec.blobs[1])
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
// blob stream, for three fixtures under the four store shapes the facade
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
// runs ahead, so it is bounded (by the synchronous peak plus the frames the
// queue can hold, each at its cost in blocks), not pinned; its sweep holds
// what the synchronous one holds, so it is never below the synchronous peak.
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
// Every row was re-recorded when the chain stopped keeping what its sweep
// never reads and arena blobs began to carry a 4-byte CRC in place of the
// 16-byte file header. Each chain row holds 12 B less per blob (238 blobs:
// 2 856 B), no blob for the head (the sweep reads its retained frame) and,
// on "selfcontained", whose C repeats on every step, no payload for a
// repeat: voltage −14 068 B (sync, anchors50; head 11 212 B) and −14 215
// (markov-sync; head 11 359), chained −5 974 (head 3 118), selfcontained
// −5 286 (sync; head 1 240, repeats 1 190), −5 266 (anchors50) and −5 354
// (markov-sync). The chain peaks fall by the same bytes, and on
// "selfcontained" by 624 B more: a repeat's fetch no longer takes a C array
// (78 values) before sharing it away. The tiered rows' blobs are 24 B
// shorter a step: voltage/tiered holds 720 B less (30 steps on the
// compressed rung, as before), peak −23; chained/tiered keeps its bytes and
// stream, its peak 24 B lower (the one blob coded and then dropped);
// selfcontained/tiered holds 457 B more, the fill-once rung taking 33 steps
// where it took 32, peak −24. The tiered rows became the budget-half rows
// when a budget became an admission rule on the chain and the ladder, with
// its self-contained blobs, was deleted: the chain under the windows' reserve
// and half the masc-sync row's bytes keeps a prefix of the masc-sync row's
// blobs and recomputes the rest (recorded then; nothing carried over).
// The five "selfcontained" rows were re-recorded when a repeat stopped
// holding a blob (its 4-byte CRC of an empty payload went): C repeats on
// every step below the head but an anchor, so sync and markov-sync hold
// 476 B less (119 repeats), anchors50 468 B less (117), peaks the same; the
// stream hashes no repeat. budget-half, whose budget is half the masc-sync
// row's bytes, 238 B less, holds 256 B less, peak too. The "voltage" and
// "chained" rows have no repeat and did not move. The three masc-anchors50
// rows went when the chain lost its anchors; no other row moved.
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
	want := map[string]pinnedBytes{
		"voltage/masc-sync":         {stored: 121414, peak: 223839, stream: 0x8ad5f45d1106b0e2},
		"voltage/masc-async2":       {stored: 121414, peak: -1, stream: 0x8ad5f45d1106b0e2},
		"voltage/markov-sync":       {stored: 117376, peak: 219801, stream: 0x936626ab96c644a4},
		"voltage/budget-half":       {stored: 62201, peak: 171706, stream: 0xb5e298422506639a},
		"chained/masc-sync":         {stored: 31816, peak: 57553, stream: 0x41e658028b2fd7a5},
		"chained/masc-async2":       {stored: 31816, peak: -1, stream: 0x41e658028b2fd7a5},
		"chained/markov-sync":       {stored: 31358, peak: 57095, stream: 0xf18e911e7ff0ae89},
		"chained/budget-half":       {stored: 16275, peak: 42900, stream: 0x4e0c20ef0948c3c7},
		"selfcontained/masc-sync":   {stored: 16144, peak: 24630, stream: 0x04ed825104424d3e},
		"selfcontained/masc-async2": {stored: 16144, peak: -1, stream: 0x04ed825104424d3e},
		"selfcontained/markov-sync": {stored: 17035, peak: 25521, stream: 0xd4d3830622ff2f91},
		"selfcontained/budget-half": {stored: 8145, peak: 19839, stream: 0xd6abde609b665fee},
	}
	shapes := []struct {
		name string
		mk   func(t *testing.T, f fixture) Store
	}{
		{"masc-sync", func(t *testing.T, f fixture) Store {
			return NewCompressedStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp)
		}},
		{"masc-async2", func(t *testing.T, f fixture) Store {
			return NewCompressedStoreAsync(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp, 0)
		}},
		{"markov-sync", func(t *testing.T, f fixture) Store {
			mo := masczip.Options{Markov: true}
			return NewCompressedStore(masczip.New(f.jp, mo), masczip.New(f.cp, mo), f.jp, f.cp)
		}},
		{"budget-half", func(t *testing.T, f fixture) Store {
			// The windows' reserve and half the unbudgeted chain.
			st := NewCompressedStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp)
			st.SetBudget(ReserveBytes(st.depth, len(f.js[0]), len(f.cs[0])) + want[f.name+"/masc-sync"].stored/2)
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
			return st
		}},
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
					// the running job's.
					if limit := syncPeak + (asyncDepth+2)*frame; got.peak > limit || got.peak < syncPeak {
						t.Errorf("PeakResident %d outside [%d, %d]", got.peak, syncPeak, limit)
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
