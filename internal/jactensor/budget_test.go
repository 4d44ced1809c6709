package jactensor

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

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

// budgetFixture is one tensor the budget tests run the chain over, with the
// states its steps were produced at (nil for none).
type budgetFixture struct {
	name       string
	jp, cp     *sparse.Pattern
	js, cs, xs [][]float64
}

func (f budgetFixture) frame() int64 { return int64(8 * (len(f.js[0]) + len(f.cs[0]))) }

// budgetFixtures: a chain of 3 KB frames whose blobs are a few hundred bytes
// — its 25 KB reserve is over MASC_MEM_BUDGET's 16K, and the whole chain does
// not fit in its 96K — one coded in the voltage family, whose frames are
// 12 KB, one of repeated stamps, one whose tensors repeat the step above
// on most steps, so the recomputed frames are shared and repeats sit on both
// sides of the first dropped step, and one — a linear circuit's — whose
// tensors never move, so its chain holds no blob and no budget at or above
// the reserve binds it.
func budgetFixtures() []budgetFixture {
	jp, cp, js, cs := movingFixture(81, 40, 320)
	vjp, vcp, vjs, vcs, vxs := voltageFixture(82, voltageNodes, 60)
	pjp, pcp, pjs, pcs := placementFixture(20, 200)
	rjp, rcp, rjs, rcs, _ := repeatFixture(83, 200)
	sjp, scp, sjs, scs := tensorFixture(84, 40, 1)
	for len(sjs) < 200 {
		sjs, scs = append(sjs, sjs[0]), append(scs, scs[0])
	}
	return []budgetFixture{
		{"moving", jp, cp, js, cs, nil},
		{"voltage", vjp, vcp, vjs, vcs, vxs},
		{"stamps", pjp, pcp, pjs, pcs, nil},
		{"repeats", rjp, rcp, rjs, rcs, nil},
		{"still", sjp, scp, sjs, scs, nil},
	}
}

// budgetRun is what one budgeted (or, at budget 0, unbudgeted) pass of the
// chain over a fixture observed.
type budgetRun struct {
	stats   Stats  // after the sweep
	stream  uint64 // sealedStream after EndForward
	arena   int64  // arena bytes after EndForward
	depth   int
	reserve int64 // what the budget keeps back for the windows
	enc     int64 // codec encode calls, both tensors
}

// runBudget drives the chain over f under budget — sync for queue 0, else
// pipelined, built with queue as the depth argument the store ignores, with
// masczip's best-fit or Markov selector — and
// reads it back in the sweep's order,
// checking as it goes that every step is bit-equal to what was put, that the
// kept steps are a prefix and hold blobs while the dropped ones hold nothing,
// and, in sync mode, that the window keeps a recomputed frame only while a
// kept step below still decodes against it. After the sweep the store holds
// its arena alone, and after Close nothing.
func runBudget(t *testing.T, f budgetFixture, budget int64, queue int, markov bool) budgetRun {
	t.Helper()
	mo := masczip.Options{Markov: markov}
	jc := countingCodec{masczip.New(f.jp, mo), new(atomic.Int64), new(atomic.Int64)}
	cc := countingCodec{masczip.New(f.cp, mo), new(atomic.Int64), new(atomic.Int64)}
	var st *CompressedStore
	if queue == 0 {
		st = NewCompressedStore(jc, cc, f.jp, f.cp)
	} else {
		st = NewCompressedStoreAsync(jc, cc, f.jp, f.cp, queue)
	}
	defer st.Close()
	st.SetBudget(budget)
	st.SetRecompute(func(step int) ([]float64, []float64, error) { return f.js[step], f.cs[step], nil })
	att := Attachment{}
	if f.xs != nil {
		att = stateOfStep(f.xs)
	}
	st.Attach(att)
	for i := range f.js {
		if err := st.Put(i, f.js[i], f.cs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	r := budgetRun{stream: sealedStream(st), depth: st.depth, enc: jc.enc.Load() + cc.enc.Load(),
		reserve: ReserveBytes(st.depth, len(f.js[0]), len(f.cs[0]))}
	n, kept := len(f.js)-1, st.Stats().TierKeptSteps
	if budget <= 0 {
		kept = n + 1
	}
	st.mu.Lock()
	r.arena = st.arena.used
	for i, rec := range st.steps {
		// A kept step below the head holds, per tensor, a blob or a repeat
		// mark; the head and a dropped step hold neither.
		held := i < kept && i < n
		for k, b := range rec.blobs {
			if held && (b != nil) == rec.repeat[k] || !held && (b != nil || rec.repeat[k]) {
				st.mu.Unlock()
				t.Fatalf("step %d tensor %d: a %d B blob, marked a repeat %v, yet %d steps were kept of %d", i, k, len(b), rec.repeat[k], kept, n+1)
			}
		}
	}
	st.mu.Unlock()

	frame := f.frame()
	for i := n; i >= 0; i-- {
		j, c, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !sameBits(j, f.js[i]) || !sameBits(c, f.cs[i]) {
			t.Fatalf("step %d: bits differ from what was put", i)
		}
		if i < n {
			st.Release(i + 1)
		}
		if queue == 0 && i >= kept+r.depth {
			// No kept step reads frame i+1 or above: step i, which the
			// sweep holds, is all the plaintext left.
			st.mu.Lock()
			resident, arena := st.resident, st.arena.used
			st.mu.Unlock()
			if resident != arena+frame {
				t.Fatalf("after fetch %d: %d B resident, want the %d B arena and one %d B frame", i, resident, arena, frame)
			}
		}
	}
	st.Release(0)
	r.stats = st.Stats()
	st.mu.Lock()
	resident, arena := st.resident, st.arena.used
	st.mu.Unlock()
	if resident != arena {
		t.Fatalf("after the sweep %d B resident, the arena holds %d B", resident, arena)
	}
	st.Close()
	if st.mu.Lock(); st.resident != 0 {
		t.Fatalf("%d B resident after Close", st.resident)
	}
	st.mu.Unlock()
	return r
}

// TestBudgetFitsStoresWhatTheChainStores: a budget of at least StoredBytes
// plus the reserve keeps every step, and the run stores
// what the unbudgeted chain stores — StoredBytes, PeakResident and the blob
// stream, to the byte — sync and pipelined. One byte less than the arena
// plus the reserve refuses the last coded step, so the top two steps are
// dropped and recomputed — or, on a chain whose arena is empty, is under the
// reserve and keeps no step.
func TestBudgetFitsStoresWhatTheChainStores(t *testing.T) {
	for _, f := range budgetFixtures() {
		for _, queue := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/queue%d", f.name, queue), func(t *testing.T) {
				ref := runBudget(t, f, 0, queue, false)
				reserve := ref.reserve
				for _, budget := range []int64{ref.stats.StoredBytes + reserve, 2 * (ref.stats.StoredBytes + reserve), ref.arena + reserve} {
					got := runBudget(t, f, budget, queue, false)
					s := got.stats
					if s.StoredBytes != ref.stats.StoredBytes || got.stream != ref.stream ||
						(queue == 0 && s.PeakResident != ref.stats.PeakResident) {
						t.Fatalf("budget %d: stored %d, peak %d, stream %#x; unbudgeted %d, %d, %#x",
							budget, s.StoredBytes, s.PeakResident, got.stream, ref.stats.StoredBytes, ref.stats.PeakResident, ref.stream)
					}
					if s.TierKeptSteps != len(f.js) || s.TierDroppedSteps != 0 || s.TierRecomputes != 0 || s.BudgetBytes != budget {
						t.Fatalf("budget %d: %+v", budget, s)
					}
				}
				edge := runBudget(t, f, ref.arena+reserve-1, queue, false).stats
				n := len(f.js) - 1
				if ref.arena == 0 {
					if edge.TierKeptSteps != 0 || edge.TierDroppedSteps != n+1 || edge.TierRecomputes != int64(n+1) {
						t.Fatalf("one byte under the reserve: %+v, want every step dropped", edge)
					}
				} else if edge.TierKeptSteps != n-1 || edge.TierDroppedSteps != 2 || edge.TierRecomputes != 2 {
					t.Fatalf("one byte under the fit: %+v, want steps %d and %d dropped", edge, n-1, n)
				}
			})
		}
	}
}

// TestBudgetBinds is the rule's property suite, over fixtures × budgets — from
// one that keeps three quarters of the chain down to a fraction of a frame,
// with MASC_MEM_BUDGET's — × masczip's selector (best fit, Markov) × the
// forward mode (sync, or pipelined, built with a depth argument of 1, 2 or
// 4, which the store ignores, so each pipelined run queues two steps and
// must keep what the others keep): every step
// comes back bit-equal and the kept steps are a prefix (runBudget); kept and
// dropped steps sum to Steps and each dropped step is recomputed once; a
// budget under the chain drops something, and one at or over the reserve
// keeps every step of a chain with no blob; and PeakResident stays within the
// budget and one frame in flight — at least two frames, since the sweep
// holds the step above the one being fetched — plus, pipelined, the frames
// the queue holds. Admission depends on sizes alone: the sync
// store, run twice, keeps the same steps in the same bytes at the same peak,
// and every pipelined store keeps what it keeps, blob for blob.
func TestBudgetBinds(t *testing.T) {
	for _, f := range budgetFixtures() {
		ref := runBudget(t, f, 0, 0, false)
		frame := f.frame()
		reserve := ref.reserve
		blocked := blockedBytes(len(f.js[0])) + blockedBytes(len(f.cs[0]))
		// Each distinct budget runs once, in first-seen order: on a chain
		// with an empty arena the first four are all the reserve.
		var budgets []int64
		for _, b := range append([]int64{reserve + ref.arena*3/4, reserve + ref.arena/2, reserve + ref.arena/4,
			reserve + frame/2, reserve, reserve - 1, frame, frame / 2}, envBudgets(t)...) {
			if !slices.Contains(budgets, b) {
				budgets = append(budgets, b)
			}
		}
		for _, budget := range budgets {
			for _, markov := range []bool{false, true} {
				var syncRun budgetRun
				for _, queue := range []int{0, 1, 2, 4} {
					t.Run(fmt.Sprintf("%s/budget=%d/markov=%v/queue=%d", f.name, budget, markov, queue), func(t *testing.T) {
						a := runBudget(t, f, budget, queue, markov)
						s := a.stats
						if s.TierKeptSteps+s.TierDroppedSteps != s.Steps || s.TierRecomputes != int64(s.TierDroppedSteps) {
							t.Fatalf("%d kept + %d dropped of %d steps, %d recomputed", s.TierKeptSteps, s.TierDroppedSteps, s.Steps, s.TierRecomputes)
						}
						if budget < ref.arena+reserve && !markov && s.TierDroppedSteps == 0 {
							t.Fatalf("a budget under the chain's %d B dropped nothing: %+v", ref.arena+reserve, s)
						}
						if ref.arena == 0 && budget >= reserve && s.TierKeptSteps != s.Steps {
							t.Fatalf("a chain with no blob kept %d of %d steps under a budget at or over the %d B reserve", s.TierKeptSteps, s.Steps, reserve)
						}
						limit := max(budget, frame) + frame
						if queue > 0 {
							limit += (asyncDepth + 2) * blocked
						}
						if s.PeakResident > limit {
							t.Fatalf("PeakResident %d over %d: the budget %d and the frames in flight", s.PeakResident, limit, budget)
						}
						if queue == 0 {
							syncRun = a
							if b := runBudget(t, f, budget, 0, markov); b.stream != a.stream || b.stats.StoredBytes != s.StoredBytes ||
								b.stats.PeakResident != s.PeakResident || b.stats.TierKeptSteps != s.TierKeptSteps {
								t.Fatalf("kept %d steps in %d B at a %d B peak (stream %#x), then %d in %d B at %d B (%#x)",
									s.TierKeptSteps, s.StoredBytes, s.PeakResident, a.stream,
									b.stats.TierKeptSteps, b.stats.StoredBytes, b.stats.PeakResident, b.stream)
							}
							return
						}
						if a.stream != syncRun.stream || s.StoredBytes != syncRun.stats.StoredBytes || s.TierKeptSteps != syncRun.stats.TierKeptSteps {
							t.Fatalf("kept %d steps in %d B (stream %#x); sync kept %d in %d B (%#x)",
								s.TierKeptSteps, s.StoredBytes, a.stream, syncRun.stats.TierKeptSteps, syncRun.stats.StoredBytes, syncRun.stream)
						}
					})
				}
			}
		}
	}
}

// TestBudgetBelowReserveCodesNothing: a budget smaller than the reserve keeps
// nothing from step 0 on: the codec is never called, the forward pass holds
// no frame, and the sweep holds the step it reads and the one above it.
func TestBudgetBelowReserveCodesNothing(t *testing.T) {
	f := budgetFixtures()[0]
	frame := f.frame()
	for _, budget := range []int64{ReserveBytes(7, len(f.js[0]), len(f.cs[0])) - 1, frame, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			r := runBudget(t, f, budget, 0, false)
			s := r.stats
			if r.depth != 7 {
				t.Fatalf("masczip reads %d frames, this test expects 7", r.depth)
			}
			if r.enc != 0 || r.arena != 0 || s.TierKeptSteps != 0 || s.TierDroppedSteps != len(f.js) {
				t.Fatalf("%d codec calls, %d B arena: %+v", r.enc, r.arena, s)
			}
			if s.PeakResident > 2*frame {
				t.Fatalf("PeakResident %d, over two %d B frames", s.PeakResident, frame)
			}
		})
	}
}

// TestBudgetDroppedWithoutHookDegrades: without SetRecompute a dropped step
// surfaces as a degradable StepError naming it — what the adjoint sweep's
// degradation ladder answers with a Repair, after which the step and the
// kept step below it read back bit-equal.
func TestBudgetDroppedWithoutHookDegrades(t *testing.T) {
	f := budgetFixtures()[0]
	st := NewCompressedStore(masczip.New(f.jp, masczip.Options{}), masczip.New(f.cp, masczip.Options{}), f.jp, f.cp)
	defer st.Close()
	st.SetBudget(ReserveBytes(st.depth, len(f.js[0]), len(f.cs[0])) + 4<<10)
	for i := range f.js {
		if err := st.Put(i, f.js[i], f.cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.TierKeptSteps == 0 || s.TierDroppedSteps == 0 {
		t.Fatalf("the budget does not bind: %+v", s)
	}
	for i := len(f.js) - 1; i >= 0; i-- {
		j, c, err := st.Fetch(i)
		if i >= s.TierKeptSteps {
			var se *StepError
			if !errors.As(err, &se) || !se.Degradable() || se.Step != i || se.Op != "fetch" {
				t.Fatalf("fetch of dropped step %d: %v, want a degradable *StepError", i, err)
			}
			st.Repair(i, f.js[i], f.cs[i])
			j, c, err = st.Fetch(i)
		}
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !sameBits(j, f.js[i]) || !sameBits(c, f.cs[i]) {
			t.Fatalf("step %d: bits differ", i)
		}
		if i < len(f.js)-1 {
			st.Release(i + 1)
		}
	}
	if got := st.Stats(); got.Repairs != s.TierDroppedSteps || got.TierRecomputes != 0 {
		t.Fatalf("%d repairs and %d recomputes for %d dropped steps", got.Repairs, got.TierRecomputes, s.TierDroppedSteps)
	}
}
