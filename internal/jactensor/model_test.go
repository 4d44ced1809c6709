package jactensor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"masc/internal/compress"
	"masc/internal/compress/chimpz"
	"masc/internal/compress/gzipz"
	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/sparse"
)

// oracle is the whole specification the stores are checked against: the
// pairs that were put, by step, admitted in order with step 0's value counts
// until the forward pass ends.
type oracle struct {
	steps []tensors
	ended bool
}

func (o *oracle) put(step int, j, c []float64) bool {
	if o.ended || step != len(o.steps) ||
		(step > 0 && (len(j) != len(o.steps[0][0]) || len(c) != len(o.steps[0][1]))) {
		return false
	}
	o.steps = append(o.steps, tensors{append([]float64(nil), j...), append([]float64(nil), c...)})
	return true
}

func (o *oracle) same(step int, j, c []float64) bool {
	return sameBits(j, o.steps[step][0]) && sameBits(c, o.steps[step][1])
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
	// chained stores are read in descending order; the others in any order.
	chained bool
	mk      func(t *testing.T, rng *rand.Rand, f *modelFixture) Store
	// bound is the most PeakResident may ever read: stored is the bytes the
	// store reports holding, held the frames the schedule can have out at
	// once on top of what the store keeps for itself, hist the frames of
	// history a chained store's codecs read (0 for the other stores).
	bound func(f *modelFixture, steps int, stored int64, held, hist int) int64
}

// modelCodecs draws a codec pair the chained stores accept.
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

func chainedBound(depth int) func(f *modelFixture, steps int, stored int64, held, hist int) int64 {
	// Every blob, the chain's newest frame and the hist below it that wait for
	// their history, the frames a queue of the given depth can hold (one
	// admitted, one running, depth waiting), and what the sweep
	// holds — its own hist frames of history are in held.
	// A frame is counted at what it costs held in blocks, none of them shared:
	// its values padded to whole blocks, and its block index.
	return func(f *modelFixture, _ int, stored int64, held, hist int) int64 {
		frame := max(f.frame, blockedBytes(len(f.js[0]))+blockedBytes(len(f.cs[0])))
		return stored + int64(3+depth+held+hist)*frame
	}
}

// budgetedShape is the chain under a budget drawn per schedule: below the
// windows' reserve (nothing kept), or the reserve and room for up to half the
// steps' frames (a kept prefix, the rest dropped, or all kept).
func budgetedShape(name string, async bool) modelShape {
	var budget int64 // this schedule's, for the bound
	return modelShape{
		name:    name,
		chained: true,
		mk: func(t *testing.T, rng *rand.Rand, f *modelFixture) Store {
			jc, cc := modelCodecs(rng, f)
			var st *CompressedStore
			if async {
				st = NewCompressedStoreAsync(jc, cc, f.jp, f.cp, 0)
			} else {
				st = NewCompressedStore(jc, cc, f.jp, f.cp)
			}
			reserve := ReserveBytes(st.depth, len(f.js[0]), len(f.cs[0]))
			if rng.Intn(3) == 0 {
				budget = 1 + rng.Int63n(reserve)
			} else {
				budget = reserve + rng.Int63n(int64(len(f.js))*f.frame/2+1)
			}
			st.SetBudget(budget)
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
			return st
		},
		// The budget and one frame in flight — at least two frames, since
		// the sweep holds the step above the one it fetches — and in async
		// mode the frames the queue holds.
		bound: func(f *modelFixture, _ int, _ int64, _, _ int) int64 {
			limit := max(budget, f.frame) + f.frame
			if async {
				limit += (asyncDepth + 2) * f.frame
			}
			return limit
		},
	}
}

func modelShapes() []modelShape {
	chainedMk := func(async bool) func(t *testing.T, rng *rand.Rand, f *modelFixture) Store {
		return func(t *testing.T, rng *rand.Rand, f *modelFixture) Store {
			var st *CompressedStore
			jc, cc := modelCodecs(rng, f)
			if async {
				st = NewCompressedStoreAsync(jc, cc, f.jp, f.cp, 0)
			} else {
				st = NewCompressedStore(jc, cc, f.jp, f.cp)
			}
			if st.async != async {
				t.Fatalf("store built async=%v, want %v", st.async, async)
			}
			return st
		}
	}
	return []modelShape{
		{name: "memory",
			mk: func(*testing.T, *rand.Rand, *modelFixture) Store { return NewMemStore() },
			bound: func(f *modelFixture, steps int, _ int64, _, _ int) int64 {
				return int64(steps) * f.frame
			}},
		{name: "disk",
			mk: func(t *testing.T, _ *rand.Rand, _ *modelFixture) Store {
				st, err := NewDiskStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			// One encode scratch and one fetch buffer pair, whatever the
			// step count.
			bound: func(f *modelFixture, _ int, _ int64, _, _ int) int64 { return 3 * f.frame }},
		{name: "compressed", chained: true, mk: chainedMk(false), bound: chainedBound(0)},
		{name: "compressed-async", chained: true, mk: chainedMk(true), bound: chainedBound(asyncDepth)},
		budgetedShape("budgeted", false),
		budgetedShape("budgeted-async", true),
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
	// held feeds the shape's bound: the most frames the reverse schedule
	// holds fetched at once.
	held int
}

// hist is the history depth of a chained store's codecs, 0 for the others.
func (m *modelRun) hist() int {
	if cs, ok := m.st.(*CompressedStore); ok {
		return cs.depth
	}
	return 0
}

// checkPeak holds PeakResident to the shape's bound.
func (m *modelRun) checkPeak(when string) {
	m.t.Helper()
	stats := m.st.Stats()
	if limit := m.sh.bound(m.f, len(m.want.steps), stats.StoredBytes, m.held, m.hist()); stats.PeakResident > limit {
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
	if !errors.As(err, &se) || se.Op != "put" || se.Step != step || se.Degradable() {
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
		if !m.faulty || !errors.As(err, &se) || !se.Degradable() || se.Step != step {
			m.t.Fatalf("fetch %d: %v (fault injection %v)", step, err, m.faulty)
		}
		if _, _, err := src.Fetch(step); err == nil {
			m.t.Fatalf("step %d readable while quarantined", step)
		}
		src.(Repairer).Repair(step, m.want.steps[step][0], m.want.steps[step][1])
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

// handoff returns a cursor over [lo, hi] in a random-access reader's
// pattern: each step is fetched, copied out (here: compared) and released at
// once.
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
// random: the schedule of concurrent readers, replayable from a seed.
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
	switch pick := m.rng.Intn(3); {
	case m.sh.chained || pick == 0:
		m.held = 2
		m.interleave([]func() bool{m.descent(m.st, 0, n)})
	case pick == 1:
		// Any order at all, one step held at a time.
		m.held = 1
		for _, i := range m.rng.Perm(n + 1) {
			m.handoff(i, i)()
		}
	default:
		// Two random-access readers side by side, over the two halves.
		m.held = 1
		tops := []int{n}
		if n > 0 {
			tops = []int{n / 2, n}
		}
		var cursors []func() bool
		lo := 0
		for _, hi := range tops {
			cursors = append(cursors, m.handoff(lo, hi))
			lo = hi + 1
		}
		m.interleave(cursors)
	}
}

// TestStoreModel is the model-based suite: random schedules of Put,
// EndForward, Fetch in every order a store's contract allows, Release and
// Repair — serial and in the shared-source pattern — over every constructor,
// codec pairs, budgets (below the chain's reserve, binding, or fitting it
// whole), states attached or not and injected frame and blob rot, each
// checked against a map. Bits are equal, refusals are typed, PeakResident
// stays under its bound, and a quarantined step heals through Repair and only
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
				m := &modelRun{t: t, rng: rng, f: f, sh: sh, faulty: seed%3 == 2}
				m.st = sh.mk(t, rng, f)
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
// counts none of them. Before the contract was shared, the disk and memory stores
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
			return NewCompressedStoreAsync(jc, cc, jp, cp, 0), nil
		},
		"budgeted": func() (Store, error) {
			jc, cc := masc()
			st := NewCompressedStore(jc, cc, jp, cp)
			// The windows' reserve and room for a few blobs.
			st.SetBudget(ReserveBytes(st.depth, len(js[0]), len(cs[0])) + 2<<10)
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
				if !errors.As(err, &se) || se.Op != "put" || se.Step != step || se.Degradable() {
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
