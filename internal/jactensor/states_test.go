package jactensor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// voltageNodes is a voltageFixture size whose C masczip's pre-pass samples on
// enough elements to price the voltage family at all (its voltEvidence).
const voltageNodes = 160

// voltageFixture is tensorFixture's patterns and G with states beside them:
// the states random-walk, and every off-diagonal pair of C stamps −f(u) for its
// own quadratic f of the voltage across it, every node a quadratic of its own
// voltage to ground on the diagonal — so C is smooth in the states and not in
// the step, and a history codec given the states codes it in the voltage.
func voltageFixture(seed int64, n, steps int) (jp, cp *sparse.Pattern, js, cs, xs [][]float64) {
	jp, cp, js, _ = tensorFixture(seed, n, steps)
	rng := rand.New(rand.NewSource(seed))
	quad := func() [3]float64 { return [3]float64{1 + rng.Float64(), rng.Float64() - 0.5, 0.5 * rng.Float64()} }
	poly := func(c [3]float64, u float64) float64 { return 1e-12 * (c[0] + u*(c[1]+u*c[2])) }
	f := map[[2]int32][3]float64{}
	g := make([][3]float64, n)
	for i := range g {
		g[i] = quad()
	}
	x := make([]float64, n)
	for s := 0; s < steps; s++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = x[i] + 0.5*rng.NormFloat64()
		}
		x = next
		c := make([]float64, cp.NNZ())
		for r := int32(0); r < int32(n); r++ {
			d, sum := int32(-1), 0.0
			for k := cp.RowPtr[r]; k < cp.RowPtr[r+1]; k++ {
				if col := cp.ColIdx[k]; col == r {
					d = k
				} else {
					key := [2]int32{min(r, col), max(r, col)}
					if _, ok := f[key]; !ok {
						f[key] = quad()
					}
					c[k] = -poly(f[key], x[key[0]]-x[key[1]])
					sum += c[k]
				}
			}
			if d >= 0 {
				c[d] = poly(g[r], x[r]) - sum
			}
		}
		cs, xs = append(cs, c), append(xs, x)
	}
	return jp, cp, js, cs, xs
}

// stateOfStep attaches the fixture's states by step.
func stateOfStep(xs [][]float64) Attachment {
	return Attachment{State: func(step int) []float64 { return xs[step] }}
}

// TestStatesFollowTheChain: with the states attached, the chain store hands
// the codecs each blob's states beside its frames — C's encoder then codes
// most blobs in the voltage — and over a sync store and pipelined ones built
// with a depth argument of 1, 2 and 4 (which the store ignores: each queues
// two steps), with one coder worker and with three, the blob
// stream is the sync store's byte for byte, a
// store given copies of the states (a resumed run's re-seed holds the
// journal's arrays, not the solver's) seals the same stream, and every step
// comes back bit for bit.
func TestStatesFollowTheChain(t *testing.T) {
	const steps = 41
	jp, cp, js, cs, xs := voltageFixture(98, voltageNodes, steps)
	copies := make([][]float64, len(xs))
	for i, x := range xs {
		copies[i] = append([]float64(nil), x...)
	}
	n := steps - 1
	for _, workers := range []int{1, 3} {
		var syncStream uint64
		for _, queue := range []int{0, 1, 2, 4, -1} { // -1: sync, fed the copies
			name := fmt.Sprintf("workers%d/queue%d", workers, queue)
			if queue < 0 {
				name = fmt.Sprintf("workers%d/sync-copies", workers)
			}
			t.Run(name, func(t *testing.T) {
				opt := masczip.Options{Workers: workers, CollectStats: true}
				jc, cc := masczip.New(jp, opt), masczip.New(cp, opt)
				st, states := NewCompressedStore(jc, cc, jp, cp), xs
				switch {
				case queue > 0:
					st = NewCompressedStoreAsync(jc, cc, jp, cp, queue)
				case queue < 0:
					states = copies
				}
				st.Attach(stateOfStep(states))
				for i := range js {
					if err := st.Put(i, js[i], cs[i]); err != nil {
						t.Fatalf("%s: put %d: %v", name, i, err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stream := sealedStream(st); queue == 0 {
					syncStream = stream
					_, c, _ := st.PredictorStats()
					var volt int64
					for _, b := range c.VoltBlobs {
						volt += b
					}
					if 2*volt < steps {
						t.Fatalf("%s: C coded %d of %d blobs in the voltage (VoltBlobs %v)", name, volt, steps, c.VoltBlobs)
					}
				} else if stream != syncStream {
					t.Fatalf("%s: blob stream %#x, the sync store's is %#x", name, stream, syncStream)
				}
				for i := n; i >= 0; i-- {
					j, c, err := st.Fetch(i)
					if err != nil {
						t.Fatalf("%s: fetch %d: %v", name, i, err)
					}
					if !sameBits(j, js[i]) || !sameBits(c, cs[i]) {
						t.Fatalf("%s: step %d: bits differ", name, i)
					}
					if i < n {
						st.Release(i + 1)
					}
				}
				st.Release(0)
				if err := st.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
	}
}

// TestStatesNeededToDecode: a blob coded in the voltage does not decode
// without its states. When a record has lost its state, the step and the steps
// below it whose blobs read that state are degradable corruptions naming the
// missing reference data, each healed by a Repair like any other; the steps
// above decode as before.
func TestStatesNeededToDecode(t *testing.T) {
	const steps, lost = 20, 7
	jp, cp, js, cs, xs := voltageFixture(99, voltageNodes, steps)
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	defer st.Close()
	st.Attach(stateOfStep(xs))
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.steps[lost].x = nil
	st.mu.Unlock()
	repaired := 0
	for i := steps - 1; i >= 0; i-- {
		j, c, err := st.Fetch(i)
		if err != nil {
			var se *StepError
			if i > lost || !errors.As(err, &se) || !se.Degradable() || se.Step != i || !errors.Is(err, masczip.ErrReference) {
				t.Fatalf("fetch %d, the state of step %d lost: %v, want a degradable *StepError wrapping masczip.ErrReference", i, lost, err)
			}
			st.Repair(i, js[i], cs[i])
			repaired++
			j, c, err = st.Fetch(i)
		}
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !sameBits(j, js[i]) || !sameBits(c, cs[i]) {
			t.Fatalf("step %d: bits differ", i)
		}
		if i < steps-1 {
			st.Release(i + 1)
		}
	}
	if repaired == 0 {
		t.Fatalf("no step needed the state of step %d", lost)
	}
}
