package jactensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// countedCodec counts the Compress calls that reach the codec it wraps.
type countedCodec struct {
	compress.Compressor
	calls *int
}

func (c countedCodec) Compress(dst []byte, cur, ref []float64) []byte {
	*c.calls++
	return c.Compressor.Compress(dst, cur, ref)
}

func (c countedCodec) Restart() { c.Compressor.(interface{ Restart() }).Restart() }

// f32Codec stores values as float32 bits: half the size, and lossless for
// the small integers the scale test stores — a codec for tests that are
// about the store's bookkeeping and not the coder.
type f32Codec struct{}

func (f32Codec) Name() string   { return "f32" }
func (f32Codec) Lossless() bool { return true }

func (f32Codec) Compress(dst []byte, cur, _ []float64) []byte {
	for _, v := range cur {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

func (f32Codec) Decompress(cur []float64, blob []byte, _ []float64) error {
	if len(blob) != 4*len(cur) {
		return fmt.Errorf("f32: %d bytes for %d floats", len(blob), len(cur))
	}
	for i := range cur {
		cur[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(blob[4*i:])))
	}
	return nil
}

// envBudgets parses MASC_MEM_BUDGET ("96K,16K"), the CI budget-sweep knob
// the facade-level suite also reads.
func envBudgets(t *testing.T) []int64 {
	var out []int64
	for _, f := range strings.Split(os.Getenv("MASC_MEM_BUDGET"), ",") {
		f = strings.ToUpper(strings.TrimSpace(f))
		if f == "" {
			continue
		}
		mult := int64(1)
		switch {
		case strings.HasSuffix(f, "K"):
			mult, f = 1<<10, f[:len(f)-1]
		case strings.HasSuffix(f, "M"):
			mult, f = 1<<20, f[:len(f)-1]
		}
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("MASC_MEM_BUDGET: %v", err)
		}
		out = append(out, n*mult)
	}
	return out
}

// placementFixture is tensorFixture's patterns with values a self-contained
// blob can compress (runs of repeated stamps, a few entries moving per
// step): tensorFixture's own values only shrink against the previous step,
// which the tiered store's restarted codecs never see, so its blobs come out
// larger than their frames and would never be kept in RAM.
func placementFixture(n, steps int) (jp, cp *sparse.Pattern, js, cs [][]float64) {
	jp, cp, js, cs = tensorFixture(71, n, steps)
	rng := rand.New(rand.NewSource(72))
	for s := range js {
		for i := range js[s] {
			js[s][i] = float64(1+(i/6)%3) * (1 + 1e-3*float64(s))
		}
		for i := range cs[s] {
			cs[s][i] = 1e-9 * float64(1+(i/5)%2)
		}
		for k := rng.Intn(8); k > 0; k-- {
			js[s][rng.Intn(len(js[s]))] = rng.NormFloat64()
		}
	}
	return
}

// blobSizes returns the total and the largest sealed size (J+C) of the
// fixture's steps, each compressed on its own as the tiered store does.
func blobSizes(jc, cc *masczip.Compressor, js, cs [][]float64) (total, largest int64) {
	for i := range js {
		jc.Restart()
		cc.Restart()
		n := int64(len(jc.Compress(nil, js[i], nil)) + len(cc.Compress(nil, cs[i], nil)) + 2*blobframe.HeaderSize)
		total += n
		largest = max(largest, n)
	}
	return total, largest
}

// placementRun is what one pass of the placement property test observed.
type placementRun struct {
	tiers     []Tier // placement at EndForward
	stats     Stats  // at EndForward
	encodes   int    // codec Compress calls for J up to EndForward
	arenaHigh int64
}

// runPlacement drives one store through capture and a reverse read in the
// given order, checking every fetched step against the MemStore's bits, the
// per-Put resident bound and the arena bound as it goes.
func runPlacement(t *testing.T, budget int64, markov, interleaved, noPrefetch bool, n, steps int) placementRun {
	t.Helper()
	jp, cp, js, cs := placementFixture(n, steps)
	frame := int64(8 * (len(js[0]) + len(cs[0])))
	_, maxBlob := blobSizes(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), js, cs)
	mem := NewMemStore()
	var out placementRun
	cfg := TieredConfig{BudgetBytes: budget, DisablePrefetch: noPrefetch}
	mo := masczip.Options{Markov: markov}
	st := NewTieredStore(countedCodec{masczip.New(jp, mo), &out.encodes}, masczip.New(cp, mo), cfg)
	defer st.Close()
	st.SetRecompute(func(step int) ([]float64, []float64, error) { return js[step], cs[step], nil })

	sample := func(when string) {
		st.mu.Lock()
		defer st.mu.Unlock()
		out.arenaHigh = max(out.arenaHigh, st.arena.used)
		if st.blobN > 0 && budget > 0 && st.arena.used > budget {
			t.Fatalf("%s: arena holds %d B under a %d B budget", when, st.arena.used, budget)
		}
	}
	for i := range js {
		if err := mem.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		sample(fmt.Sprintf("put %d", i))
		if peak := st.Stats().PeakResident; budget >= frame && peak > budget+frame+maxBlob {
			t.Fatalf("put %d: PeakResident %d > budget %d + frame %d + blob %d", i, peak, budget, frame, maxBlob)
		}
	}
	if err := mem.EndForward(); err != nil {
		t.Fatal(err)
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	out.stats = st.Stats()
	forwardEncodes := out.encodes
	for _, s := range st.steps {
		out.tiers = append(out.tiers, s.tier)
	}

	check := func(i int) {
		jv, cv, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		mj, mc, err := mem.Fetch(i)
		if err != nil {
			t.Fatal(err)
		}
		for k := range mj {
			if math.Float64bits(jv[k]) != math.Float64bits(mj[k]) {
				t.Fatalf("step %d: J[%d] differs from MemStore", i, k)
			}
		}
		for k := range mc {
			if math.Float64bits(cv[k]) != math.Float64bits(mc[k]) {
				t.Fatalf("step %d: C[%d] differs from MemStore", i, k)
			}
		}
		sample(fmt.Sprintf("fetch %d", i))
	}
	if interleaved {
		// Two descents side by side, each holding one step in use: the
		// store is random-access, so any order reads back the same bits.
		mid := steps / 2
		for a, b := steps-1, mid-1; a >= mid || b >= 0; a, b = a-1, b-1 {
			if a >= mid {
				check(a)
			}
			if b >= 0 {
				check(b)
				st.Release(b)
			}
			if a >= mid {
				st.Release(a)
			}
		}
	} else {
		for i := steps - 1; i >= 0; i-- {
			check(i)
			if i < steps-1 {
				st.Release(i + 1)
			}
		}
		st.Release(0)
	}
	out.encodes = forwardEncodes
	return out
}

// TestTieredPlacementProperties is the property suite of admission-time
// placement: across frame sizes, budgets (unlimited, fractions of the
// compressed size, a tiny one, MASC_MEM_BUDGET's), the codec's selector
// (best fit or Markov, the one masc runs under a budget), fetch
// orders and prefetch on/off —
//
//   - every fetched step is bit-equal to what a MemStore returns;
//   - the codec is called exactly once for every step that left the hot
//     tier for the compressed rung, and not at all for a direct drop (up to
//     the one blob whose estimate was short);
//   - a budget that binds drops steps;
//   - PeakResident <= budget + one frame + one blob after every Put;
//   - the arena never holds more than the budget, however many steps pass
//     through the store;
//   - two runs place every step identically.
//
// Placement is a function of frame and blob sizes alone, so the frame size
// is the axis that moves it: 4 nodes, where a self-contained blob outgrows
// its frame and the compressed rung stays empty; 8, where the tiny budget
// holds a few frames and blobs; 20; and 64, where the tiny budget holds no
// frame at all.
func TestTieredPlacementProperties(t *testing.T) {
	const steps = 96
	for _, n := range []int{4, 8, 20, 64} {
		jp, cp, js, cs := placementFixture(n, steps)
		frame := int64(8 * (len(js[0]) + len(cs[0])))
		compressed, _ := blobSizes(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), js, cs)
		budgets := append([]int64{0, compressed / 2, compressed / 4, compressed / 8, 4 << 10}, envBudgets(t)...)
		for _, budget := range budgets {
			for _, markov := range []bool{false, true} {
				for _, interleaved := range []bool{false, true} {
					for _, noPrefetch := range []bool{false, true} {
						name := fmt.Sprintf("nodes=%d/budget=%d/markov=%v/interleaved=%v/prefetch=%v",
							n, budget, markov, interleaved, !noPrefetch)
						t.Run(name, func(t *testing.T) {
							a := runPlacement(t, budget, markov, interleaved, noPrefetch, n, steps)
							b := runPlacement(t, budget, markov, interleaved, noPrefetch, n, steps)
							for i := range a.tiers {
								if a.tiers[i] != b.tiers[i] {
									t.Fatalf("step %d placed on %v, then on %v", i, a.tiers[i], b.tiers[i])
								}
							}

							s := a.stats
							if budget == 0 || budget >= frame*steps {
								if a.encodes != 0 || s.TierHotSteps != steps {
									t.Fatalf("budget never binds, yet %d encodes and %+v", a.encodes, s)
								}
								return
							}
							left := steps - s.TierHotSteps // steps that left the hot tier
							if want := left - int(s.TierDirectDrops); a.encodes != want {
								t.Fatalf("%d codec calls for %d steps off the hot tier of which %d direct drops (want %d): %+v",
									a.encodes, left, s.TierDirectDrops, want, s)
							}
							// Steps that met the codec and were dropped all
							// the same: blobs their estimate undersized, and
							// nothing else.
							if wasted := s.TierDroppedSteps - int(s.TierDirectDrops); wasted > 2 {
								t.Fatalf("%d steps were compressed and then dropped: %+v", wasted, s)
							}
							if s.TierDroppedSteps == 0 {
								t.Fatalf("the budget binds, yet nothing was dropped: %+v", s)
							}
							if a.arenaHigh > budget {
								t.Fatalf("arena high-water %d B over the %d B budget", a.arenaHigh, budget)
							}
						})
					}
				}
			}
		}
	}
}

// TestTieredArenaBoundedOnLongDropRun is the case an append-only arena could
// not survive under a ladder that cycled every step through compressed RAM:
// 2 000 steps through a budget that holds a few dozen blobs, nearly all of
// them headed for the recompute rung. The compressed rung fills once, the
// rest go straight from the hot tier to the recompute rung without meeting
// the codec, and the arena's high-water mark stays under the budget.
func TestTieredArenaBoundedOnLongDropRun(t *testing.T) {
	const n, steps = 12, 2000
	_, _, js, cs := placementFixture(n, 1)
	frame := int64(8 * (len(js[0]) + len(cs[0])))
	budget := 24 * frame
	a := runPlacement(t, budget, false, false, false, n, steps)
	if a.stats.TierCompressedSteps == 0 || a.stats.TierDirectDrops < steps/2 {
		t.Fatalf("not a drop-regime run: %+v", a.stats)
	}
	if a.arenaHigh == 0 || a.arenaHigh > budget {
		t.Fatalf("arena high-water %d B, want within (0, %d]", a.arenaHigh, budget)
	}
	if want := steps - a.stats.TierHotSteps - int(a.stats.TierDirectDrops); a.encodes != want {
		t.Fatalf("%d codec calls for %d steps off the hot tier of which %d direct drops (want %d)",
			a.encodes, steps-a.stats.TierHotSteps, a.stats.TierDirectDrops, want)
	}
	t.Logf("%d steps, budget %d B: arena high-water %d B, %d compressed in RAM, %d dropped",
		steps, budget, a.arenaHigh, a.stats.TierCompressedSteps, a.stats.TierDroppedSteps)
}

// TestTieredVictimSelectionScales puts 10⁵ steps through a budget that holds
// about a hundred of them and counts the index entries victim examined: a
// count, not a time, and linear in the steps — the scan it replaces walked
// the step list from 0 for every demotion, 5·10⁹ probes for this run. The
// second pass quarantines a few frames that rot before their demotion and
// leaves steps in use while further promotions force evictions, so every way
// an entry can go stale is met.
func TestTieredVictimSelectionScales(t *testing.T) {
	const steps, floats = 100_000, 8 // 8 J + 8 C values: 16-float frames
	const frame = 8 * 2 * floats
	j, c := make([]float64, floats), make([]float64, floats)
	fill := func(st *TieredStore, rot map[int]bool) {
		t.Helper()
		for i := 0; i < steps; i++ {
			for k := range j {
				j[k], c[k] = float64(i+k), float64(i-k)
			}
			if err := st.Put(i, j, c); err != nil {
				t.Fatal(err)
			}
			if rot[i] {
				st.steps[i].j[0]++ // behind the sidecar's back
			}
		}
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
	}
	newStore := func() *TieredStore {
		st := NewTieredStore(f32Codec{}, f32Codec{}, TieredConfig{BudgetBytes: 100 * frame, DisablePrefetch: true})
		st.SetRecompute(func(step int) ([]float64, []float64, error) {
			for k := range j {
				j[k], c[k] = float64(step+k), float64(step-k)
			}
			return j, c, nil
		})
		return st
	}

	t.Run("plain", func(t *testing.T) {
		st := newStore()
		defer st.Close()
		fill(st, nil)
		if st.probes > 2*steps {
			t.Fatalf("victim examined %d index entries for %d steps", st.probes, steps)
		}
		if got := st.Stats(); got.TierDirectDrops < steps-200 {
			t.Fatalf("only %d direct drops: %+v", got.TierDirectDrops, got)
		}
		t.Logf("%d probes for %d steps", st.probes, steps)
	})

	t.Run("quarantined+inuse", func(t *testing.T) {
		st := newStore()
		defer st.Close()
		rot := map[int]bool{10: true, 5_000: true, 77_777: true}
		fill(st, rot)
		if got := st.Stats().CorruptBlobs; got != len(rot) {
			t.Fatalf("%d frames quarantined at demotion, want %d", got, len(rot))
		}
		// Hold the top steps in use, then promote a run of dropped steps from
		// the middle without releasing the first few, so evictions must pass
		// over in-use and quarantined entries.
		// Only frames in use may hold the meter over the budget: the arena
		// keeps every blob the compressed rung took, and the meter counts it,
		// until Close (DESIGN.md §6.5), so once it fills the budget every hot
		// frame left is one the sweep holds or, after a Repair, the repaired
		// frame, which the budget is enforced around before it can be a victim.
		budget := int64(100 * frame)
		held, maxHeld := 0, 0
		note := func(op string, step int) {
			t.Helper()
			maxHeld = max(maxHeld, held)
			st.mu.Lock()
			defer st.mu.Unlock()
			if limit := max(budget, st.arena.used+int64(held+1)*frame); st.resident > limit {
				t.Fatalf("%s %d: %d B resident, over %d: the budget, or the %d B arena and %d frames in use and one admitted",
					op, step, st.resident, limit, st.arena.used, held)
			}
		}
		fetches := 0
		for i := steps - 1; i >= steps-5; i-- {
			if _, _, err := st.Fetch(i); err != nil {
				t.Fatal(err)
			}
			held++
			note("fetch", i)
			fetches++
		}
		for i := 60_000; i > 59_000; i-- {
			if _, _, err := st.Fetch(i); err != nil {
				t.Fatal(err)
			}
			held++
			note("fetch", i)
			fetches++
			if i < 59_995 {
				st.Release(i)
				held--
				note("release", i)
			}
		}
		for step := range rot {
			st.Repair(step, j, c)
			note("repair", step)
			fetches++
		}
		if limit := int64(2 * (steps + fetches)); st.probes > limit {
			t.Fatalf("victim examined %d index entries for %d steps and %d fetches (limit %d)",
				st.probes, steps, fetches, limit)
		}
		// Inside a call one frame more may be in flight beside the most frames
		// held at once: a promotion's, before the budget is enforced around it.
		if peak, limit := st.Stats().PeakResident, max(budget, st.arena.used+int64(maxHeld+1)*frame); peak > limit {
			t.Fatalf("PeakResident %d over %d: the budget, or the %d B arena and %d frames in use and one admitted",
				peak, limit, st.arena.used, maxHeld)
		}
		t.Logf("PeakResident %d: budget %d, arena %d B, at most %d frames in use", st.Stats().PeakResident, budget, st.arena.used, maxHeld)
		t.Logf("%d probes for %d steps and %d fetches", st.probes, steps, fetches)
	})
}
