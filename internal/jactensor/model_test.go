package jactensor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"masc/internal/compress"
	"masc/internal/compress/chimpz"
	"masc/internal/compress/gzipz"
	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/sparse"
	"masc/internal/tiersched"
)

// oracle is the whole specification the stores are checked against: the
// pairs that were put, by step, admitted in order with step 0's value counts
// until the forward pass ends.
type oracle struct {
	steps []pair
	ended bool
}

func (o *oracle) put(step int, j, c []float64) bool {
	if o.ended || step != len(o.steps) ||
		(step > 0 && (len(j) != len(o.steps[0].j) || len(c) != len(o.steps[0].c))) {
		return false
	}
	o.steps = append(o.steps, pair{append([]float64(nil), j...), append([]float64(nil), c...)})
	return true
}

func (o *oracle) same(step int, j, c []float64) bool {
	return sameBits(j, o.steps[step].j) && sameBits(c, o.steps[step].c)
}

// modelFixture is one randomly sized tensor, with the states its steps were
// produced at.
type modelFixture struct {
	jp, cp *sparse.Pattern
	js, cs [][]float64
	xs     [][]float64
	frame  int64
}

// modelShape is one way to build a store, with the access contract and the
// resident bound that go with it.
type modelShape struct {
	name string
	// chained stores are read in descending order (or through slices);
	// the others in any order.
	chained bool
	mk      func(t *testing.T, rng *rand.Rand, f *modelFixture, anchorEvery int) Store
	// bound is the most PeakResident may ever read: stored is the bytes the
	// store reports holding, held the frames the schedule can have out at
	// once on top of what the store keeps for itself, hist the frames of
	// history a chained store's codecs read (0 for the other stores).
	bound func(f *modelFixture, steps int, stored int64, anchors, held, hist int) int64
}

// modelCodecs draws a codec pair the chained stores accept (only the masczip
// ones can be forked for window slices).
func modelCodecs(rng *rand.Rand, f *modelFixture) (jc, cc compress.Compressor) {
	switch rng.Intn(6) {
	case 0:
		return gzipz.New(), gzipz.New()
	case 1:
		return chimpz.New(), chimpz.New()
	case 2:
		return chimpz.NewTemporal(), chimpz.NewTemporal()
	default:
		mo := masczip.Options{Workers: 1 + rng.Intn(4), Markov: rng.Intn(2) == 0, CalibEvery: 1 + rng.Intn(5)}
		return masczip.New(f.jp, mo), masczip.New(f.cp, mo)
	}
}

func chainedBound(depth int) func(f *modelFixture, steps int, stored int64, anchors, held, hist int) int64 {
	// Every blob, the chain's newest frame and the hist below it that wait for
	// their history, the frames a queue of the given depth can hold (one
	// admitted, one running, depth waiting), the anchors, and what the sweep
	// holds — its own hist frames of history are in held — plus one prefetch.
	return func(f *modelFixture, _ int, stored int64, anchors, held, hist int) int64 {
		return stored + int64(3+depth+anchors+held+1+hist)*f.frame
	}
}

func tieredShape(name string, budgetFrames int64, noDisk bool) modelShape {
	return modelShape{
		name: name,
		mk: func(t *testing.T, rng *rand.Rand, f *modelFixture, anchorEvery int) Store {
			cfg := TieredConfig{BudgetBytes: budgetFrames * f.frame, DisableDisk: noDisk,
				DisablePrefetch: rng.Intn(2) == 0,
				Model:           tiersched.NewModel(tiersched.NewFakeClock(time.Microsecond))}
			if !noDisk {
				cfg.DiskDir = t.TempDir()
			}
			// A forward step priced at a nanosecond sends offloads to the
			// recompute rung, one at a second to the spill file.
			cfg.Model.ObserveForwardStep(time.Duration(1+rng.Intn(2)*int(time.Second-1)) * time.Nanosecond)
			st := NewTieredStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), cfg)
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
			if anchorEvery > 0 {
				st.SetAnchorEvery(anchorEvery)
			}
			return st
		},
		bound: func(f *modelFixture, steps int, _ int64, _, held, _ int) int64 {
			if budgetFrames == 0 {
				// Everything stays hot; a repair may briefly hold its copy.
				return int64(steps+1) * f.frame
			}
			// The documented slack: the frame being admitted, a blob beside
			// its plaintext mid-demotion, the spill scratch — a frame each —
			// and the frames the schedule holds in use.
			return (budgetFrames + 3 + int64(held)) * f.frame
		},
	}
}

func modelShapes() []modelShape {
	chainedMk := func(async bool) func(t *testing.T, rng *rand.Rand, f *modelFixture, anchorEvery int) Store {
		return func(t *testing.T, rng *rand.Rand, f *modelFixture, anchorEvery int) Store {
			var st *CompressedStore
			depth := 1 + rng.Intn(8)
			jc, cc := modelCodecs(rng, f)
			if async {
				st = NewCompressedStoreAsync(jc, cc, f.jp, f.cp, depth)
			} else {
				st = NewCompressedStore(jc, cc, f.jp, f.cp)
			}
			if st.async != async {
				t.Fatalf("store built async=%v, want %v", st.async, async)
			}
			st.SetAnchorEvery(anchorEvery)
			return st
		}
	}
	return []modelShape{
		{name: "memory",
			mk: func(*testing.T, *rand.Rand, *modelFixture, int) Store { return NewMemStore() },
			bound: func(f *modelFixture, steps int, _ int64, _, _, _ int) int64 {
				return int64(steps) * f.frame
			}},
		{name: "disk",
			mk: func(t *testing.T, _ *rand.Rand, _ *modelFixture, _ int) Store {
				st, err := NewDiskStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			// One encode scratch and one fetch buffer pair, whatever the
			// step count.
			bound: func(f *modelFixture, _ int, _ int64, _, _, _ int) int64 { return 3 * f.frame }},
		{name: "compressed", chained: true, mk: chainedMk(false), bound: chainedBound(0)},
		{name: "compressed-async", chained: true, mk: chainedMk(true), bound: chainedBound(8)},
		tieredShape("tiered-unlimited", 0, false),
		tieredShape("tiered-tight", 5, false),
		tieredShape("tiered-diskless", 5, true),
	}
}

// modelRun drives one store through one random schedule.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	f      *modelFixture
	sh     modelShape
	st     Store
	want   oracle
	faulty bool
	healed int
	// anchors and held feed the shape's bound: the retained anchor frames and
	// the most frames the reverse schedule holds fetched at once.
	anchors, held int
}

// hist is the history depth of a chained store's codecs, 0 for the others.
func (m *modelRun) hist() int {
	if cs, ok := m.st.(*CompressedStore); ok {
		return cs.cd.depth
	}
	return 0
}

// checkPeak holds PeakResident to the shape's bound.
func (m *modelRun) checkPeak(when string) {
	m.t.Helper()
	stats := m.st.Stats()
	if limit := m.sh.bound(m.f, len(m.want.steps), stats.StoredBytes, m.anchors, m.held, m.hist()); stats.PeakResident > limit {
		m.t.Fatalf("%s: PeakResident %d above its bound %d (frame %d, %+v)", when, stats.PeakResident, limit, m.f.frame, stats)
	}
}

// forward puts every step in order, and between them throws what the Put
// contract forbids at the store: each must fail typed and leave no trace.
func (m *modelRun) forward() {
	t, rng, f := m.t, m.rng, m.f
	for i := range f.js {
		switch rng.Intn(6) {
		case 0:
			m.refuse(i+1, f.js[i], f.cs[i], "an out-of-order step")
		case 1:
			if i > 0 {
				m.refuse(i, f.js[i][:len(f.js[i])-1], f.cs[i], "a changed value count")
				m.refuse(i, f.js[i], append([]float64{0}, f.cs[i]...), "a changed value count")
			}
		case 2:
			if _, _, err := m.st.Fetch(0); err == nil {
				t.Fatalf("step %d: Fetch before EndForward succeeded", i)
			}
		}
		if !m.want.put(i, f.js[i], f.cs[i]) {
			t.Fatalf("oracle refused step %d", i)
		}
		if err := m.st.Put(i, f.js[i], f.cs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		m.checkPeak(fmt.Sprintf("put %d", i))
	}
	if _, _, err := m.st.Fetch(len(f.js) - 1); err == nil {
		t.Fatal("Fetch before EndForward succeeded")
	}
	if err := m.st.EndForward(); err != nil {
		t.Fatal(err)
	}
	m.want.ended = true
	m.refuse(len(f.js), f.js[0], f.cs[0], "a step after EndForward")
	if _, _, err := m.st.Fetch(len(f.js) + 3); err == nil {
		t.Fatal("out-of-range Fetch succeeded")
	}
	stats := m.st.Stats()
	if stats.Steps != len(f.js) || stats.RawBytes != f.frame*int64(len(f.js)) {
		t.Fatalf("after EndForward: %d steps, %d raw bytes; want %d, %d", stats.Steps, stats.RawBytes, len(f.js), f.frame*int64(len(f.js)))
	}
}

// refuse puts something the contract forbids and checks the refusal.
func (m *modelRun) refuse(step int, j, c []float64, what string) {
	m.t.Helper()
	if m.want.put(step, j, c) {
		m.t.Fatalf("oracle accepted %s", what)
	}
	before := m.st.Stats()
	err := m.st.Put(step, j, c)
	var se *StepError
	if !errors.As(err, &se) || se.Op != "put" || se.Step != step || se.Degradable {
		m.t.Fatalf("Put of %s: %v, want a non-degradable *StepError{Op: put, Step: %d}", what, err, step)
	}
	if after := m.st.Stats(); after.Steps != before.Steps || after.RawBytes != before.RawBytes {
		m.t.Fatalf("refused Put of %s was counted: %+v then %+v", what, before, after)
	}
}

type fetcher interface {
	Fetch(int) ([]float64, []float64, error)
	Release(int)
}

// fetch reads one step through src and compares it with the oracle. A
// failure is legal only under fault injection, and then only as a degradable
// *StepError naming the step; the step must stay unreadable until Repair and
// be bit-exact after it.
func (m *modelRun) fetch(src fetcher, step int) {
	m.t.Helper()
	j, c, err := src.Fetch(step)
	if err != nil {
		var se *StepError
		if !m.faulty || !errors.As(err, &se) || !se.Degradable || se.Step != step {
			m.t.Fatalf("fetch %d: %v (fault injection %v)", step, err, m.faulty)
		}
		if _, _, err := src.Fetch(step); err == nil {
			m.t.Fatalf("step %d readable while quarantined", step)
		}
		src.(Repairer).Repair(step, m.want.steps[step].j, m.want.steps[step].c)
		m.healed++
		if j, c, err = src.Fetch(step); err != nil {
			m.t.Fatalf("fetch %d after Repair: %v", step, err)
		}
	}
	if !m.want.same(step, j, c) {
		m.t.Fatalf("step %d: bits differ from what was put", step)
	}
}

// descent returns a cursor over [lo, hi] through src in the only order a
// chained store allows — descending, each step released once the one below
// it is read, a still-resident step re-read now and then. Each call reads
// one more step and reports whether any are left, so several descents can
// be interleaved.
func (m *modelRun) descent(src fetcher, lo, hi int) func() bool {
	i := hi
	return func() bool {
		m.fetch(src, i)
		if m.rng.Intn(4) == 0 {
			m.fetch(src, i)
		}
		if i < hi {
			if m.rng.Intn(4) == 0 {
				m.fetch(src, i+1)
			}
			src.Release(i + 1)
		}
		m.checkPeak(fmt.Sprintf("fetch %d", i))
		if i == lo {
			src.Release(lo)
			return false
		}
		i--
		return true
	}
}

// handoff returns a cursor over [lo, hi] in the adjoint engine's
// sharedSource pattern: each step is fetched, copied out (here: compared)
// and released at once.
func (m *modelRun) handoff(lo, hi int) func() bool {
	i := hi
	return func() bool {
		m.fetch(m.st, i)
		m.st.Release(i)
		m.checkPeak(fmt.Sprintf("fetch %d", i))
		i--
		return i >= lo
	}
}

// interleave runs the cursors to completion, picking the next to advance at
// random: the schedule of concurrent window sweeps, replayable from a seed.
func (m *modelRun) interleave(cursors []func() bool) {
	for len(cursors) > 0 {
		if k := m.rng.Intn(len(cursors)); !cursors[k]() {
			cursors = append(cursors[:k], cursors[k+1:]...)
		}
	}
}

// reverse reads everything back under one of the access patterns the
// store's contract allows.
func (m *modelRun) reverse() {
	n := len(m.f.js) - 1
	var tops []int // window boundaries, when the store offers any
	if a, ok := m.st.(interface{ AnchorSteps() []int }); ok {
		tops = a.AnchorSteps()
	}
	windowed := func(cursor func(lo, hi int) func() bool) {
		var cursors []func() bool
		lo := 0
		for _, hi := range tops {
			cursors = append(cursors, cursor(lo, hi))
			lo = hi + 1
		}
		m.interleave(cursors)
	}
	serial := func() {
		m.held = 2
		m.interleave([]func() bool{m.descent(m.st, 0, n)})
	}
	cs, _ := m.st.(*CompressedStore)
	switch pick := m.rng.Intn(3); {
	case m.sh.chained && pick > 0 && len(tops) > 1:
		// Window slices, each its own reverse chain, side by side.
		if _, err := cs.Slice(0, tops[0]); err != nil {
			serial() // codecs that cannot fork
			return
		}
		m.held = (2 + m.hist()) * len(tops)
		windowed(func(lo, hi int) func() bool {
			sl, err := cs.Slice(lo, hi)
			if err != nil {
				m.t.Fatal(err)
			}
			return m.descent(sl, lo, hi)
		})
	case m.sh.chained || pick == 0:
		serial()
	case pick == 1:
		// Any order at all, one step held at a time.
		m.held = 1
		for _, i := range m.rng.Perm(n + 1) {
			m.handoff(i, i)()
		}
	default:
		m.held = 1
		if len(tops) < 2 && n > 0 {
			tops = []int{n / 2, n}
		} else if len(tops) == 0 {
			tops = []int{n}
		}
		windowed(m.handoff)
	}
}

// TestStoreModel is the model-based suite: random schedules of Put,
// EndForward, Fetch in every order a store's contract allows, Release and
// Repair — serial, through window slices and in the shared-source pattern —
// over every constructor, codec pairs, anchor spacings, budgets (none,
// tight, tight and diskless), states attached or not and injected frame and
// blob rot, each checked against a map. Bits are equal, refusals are typed, PeakResident stays
// under its bound, and a quarantined step heals through Repair and only
// through it.
func TestStoreModel(t *testing.T) {
	for _, sh := range modelShapes() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				steps := 1 + rng.Intn(40)
				f := &modelFixture{}
				switch rng.Intn(3) {
				case 0:
					f.jp, f.cp, f.js, f.cs = tensorFixture(seed, 4+rng.Intn(12), steps)
				case 1:
					f.jp, f.cp, f.js, f.cs = placementFixture(4+rng.Intn(12), steps)
				default: // with states, large enough for C to be coded in the voltage
					f.jp, f.cp, f.js, f.cs, f.xs = voltageFixture(seed, 4+rng.Intn(2*voltageNodes), steps)
				}
				f.frame = int64(8 * (len(f.js[0]) + len(f.cs[0])))
				anchorEvery := 0
				if rng.Intn(2) == 0 {
					anchorEvery = 2 + rng.Intn(7)
				}
				m := &modelRun{t: t, rng: rng, f: f, sh: sh, faulty: seed%3 == 2}
				m.st = sh.mk(t, rng, f, anchorEvery)
				if anchorEvery > 0 {
					m.anchors = steps / anchorEvery
				}
				att := stateOfStep(f.xs)
				if f.xs == nil {
					att.State = nil
				}
				if m.faulty {
					att.Fault = faultinject.New(faultinject.Profile{Name: "rot", Seed: seed, BitFlipOneIn: 2 + rng.Intn(6), TruncateOneIn: 9})
				}
				m.st.(interface{ Attach(Attachment) }).Attach(att)
				m.forward()
				m.reverse()
				stats := m.st.Stats()
				if stats.Repairs != m.healed || stats.CorruptBlobs < m.healed {
					t.Fatalf("seed %d: %d steps healed, stats count %d repairs and %d corruptions", seed, m.healed, stats.Repairs, stats.CorruptBlobs)
				}
				if !m.faulty && stats.CorruptBlobs != 0 {
					t.Fatalf("seed %d: %d corruptions without fault injection", seed, stats.CorruptBlobs)
				}
				if err := m.st.Close(); err != nil {
					t.Fatalf("seed %d: Close: %v", seed, err)
				}
			}
		})
	}
}

// TestPutContract: every store, the states attached, refuses an out-of-order
// step, a step whose value counts differ from step 0's and a step after
// EndForward, with a non-degradable *StepError{Op: "put"} naming the step, and
// counts none of them. Before the contract was shared, the tiered, disk and memory stores
// took a step with changed value counts (the disk store then reported the
// caller's bug as a corrupt record at fetch time).
func TestPutContract(t *testing.T) {
	// Longer than the chain's history window, so refusals land before, while
	// and after steps are sealed behind the newest ones.
	const steps = 12
	jp, cp, js, cs, xs := voltageFixture(7, voltageNodes, steps+1)
	masc := func() (compress.Compressor, compress.Compressor) {
		return masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{})
	}
	for name, mk := range map[string]func() (Store, error){
		"memory": func() (Store, error) { return NewMemStore(), nil },
		"disk":   func() (Store, error) { return NewDiskStore(t.TempDir(), 0) },
		"compressed": func() (Store, error) {
			jc, cc := masc()
			return NewCompressedStore(jc, cc, jp, cp), nil
		},
		"compressed-async": func() (Store, error) {
			jc, cc := masc()
			return NewCompressedStoreAsync(jc, cc, jp, cp, 2), nil
		},
		"tiered": func() (Store, error) {
			jc, cc := masc()
			st := NewTieredStore(jc, cc, TieredConfig{BudgetBytes: 200, DisableDisk: true})
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return js[step], cs[step], nil })
			return st, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			st, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.(interface{ Attach(Attachment) }).Attach(stateOfStep(xs))
			refused := func(what string, step int, j, c []float64) {
				t.Helper()
				before := st.Stats()
				err := st.Put(step, j, c)
				var se *StepError
				if !errors.As(err, &se) || se.Op != "put" || se.Step != step || se.Degradable {
					t.Fatalf("%s: Put returned %v, want a non-degradable *StepError{Op: put, Step: %d}", what, err, step)
				}
				if after := st.Stats(); after.Steps != before.Steps || after.RawBytes != before.RawBytes {
					t.Fatalf("%s: the refused step was counted (%d steps, %d raw bytes)", what, after.Steps, after.RawBytes)
				}
			}
			refused("out of order", 1, js[1], cs[1])
			if err := st.Put(0, js[0], cs[0]); err != nil {
				t.Fatal(err)
			}
			refused("fewer J values", 1, js[1][:3], cs[1])
			refused("more C values", 1, js[1], append([]float64{1, 2, 3}, cs[1]...))
			refused("repeated step", 0, js[0], cs[0])
			for i := 1; i < steps; i++ {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					refused("out of order, mid-run", i+2, js[i], cs[i])
					refused("fewer C values, mid-run", i+1, js[i], cs[i][:1])
					refused("repeated step, mid-run", i, js[i], cs[i])
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			refused("after EndForward", steps, js[steps], cs[steps])
			for i := steps - 1; i >= 0; i-- {
				j, c, err := st.Fetch(i)
				if err != nil {
					t.Fatalf("fetch %d: %v", i, err)
				}
				if !sameBits(j, js[i]) || !sameBits(c, cs[i]) {
					t.Fatalf("step %d: bits differ after the refusals", i)
				}
				if i < steps-1 {
					st.Release(i + 1)
				}
			}
		})
	}
}
