package jactensor

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// The chain keeps only what its reverse sweep reads: no blob for the head,
// no blob for a repeat, a CRC in place of a file header. These tests hold
// it to that, and to catching every fault the header caught.

// countingCodec is a masczip compressor that counts its encode and decode
// calls.
type countingCodec struct {
	*masczip.Compressor
	enc, dec *atomic.Int64
}

func newCounting(p *sparse.Pattern) countingCodec {
	return countingCodec{masczip.New(p, masczip.Options{}), new(atomic.Int64), new(atomic.Int64)}
}

func (c countingCodec) CompressHistory(dst []byte, cur []float64, hist compress.History, states [][]float64) []byte {
	c.enc.Add(1)
	return c.Compressor.CompressHistory(dst, cur, hist, states)
}

func (c countingCodec) DecompressHistory(cur []float64, blob []byte, hist compress.History, states [][]float64) error {
	c.dec.Add(1)
	return c.Compressor.DecompressHistory(cur, blob, hist, states)
}

// repeatFixture is movingFixture with repeats: J repeats the step above it on
// two steps of every three (so in runs of two), C on every fourth step, and
// both at once on some. rep[i][s] reports whether tensor i of step s repeats
// step s+1's.
func repeatFixture(seed int64, steps int) (jp, cp *sparse.Pattern, js, cs [][]float64, rep [2][]bool) {
	jp, cp, js, cs = movingFixture(seed, 16, steps)
	rep = [2][]bool{make([]bool, steps), make([]bool, steps)}
	for s := steps - 2; s >= 0; s-- {
		if s%3 != 2 {
			js[s], rep[0][s] = append([]float64(nil), js[s+1]...), true
		}
		if s%4 == 1 {
			cs[s], rep[1][s] = append([]float64(nil), cs[s+1]...), true
		}
	}
	return jp, cp, js, cs, rep
}

// TestRepeatsMeetNoCodec: the head is never coded and a repeat meets no codec
// on either side: it holds no blob — the arena holds the other blobs and not
// a byte more — RepeatSteps counts it, and its fetch — sync or async — is
// the array fetched for the step above it. Every other step below the head is
// coded once and decoded once.
func TestRepeatsMeetNoCodec(t *testing.T) {
	const steps = 30
	n := steps - 1
	jp, cp, js, cs, rep := repeatFixture(91, steps)
	var coded [2]int64
	var repeats [nTensors]int
	for i := range rep {
		for s := 0; s < n; s++ {
			if !rep[i][s] {
				coded[i]++
			} else {
				repeats[i]++
			}
		}
	}
	for _, queue := range []int{0, 2} {
		name := fmt.Sprintf("queue%d", queue)
		t.Run(name, func(t *testing.T) {
			jc, cc := newCounting(jp), newCounting(cp)
			var st *CompressedStore
			if queue == 0 {
				st = NewCompressedStore(jc, cc, jp, cp)
			} else {
				st = NewCompressedStoreAsync(jc, cc, jp, cp, queue)
			}
			for s := range js {
				if err := st.Put(s, js[s], cs[s]); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			codecs := [2]countingCodec{jc, cc}
			for i, c := range codecs {
				if got := c.enc.Load(); got != coded[i] {
					t.Fatalf("%s: tensor %d met the encoder %d times, want %d (the steps below the head, less the repeats)", name, i, got, coded[i])
				}
			}
			st.mu.Lock()
			if head := st.steps[n]; head.blobs[0] != nil || head.blobs[1] != nil {
				t.Fatalf("%s: the head has blobs of %d and %d B", name, len(head.blobs[0]), len(head.blobs[1]))
			}
			blobs := int64(0)
			for s := 0; s < n; s++ {
				for i, b := range st.steps[s].blobs {
					if r := st.steps[s].repeat[i]; r != rep[i][s] || r != (b == nil) || !r && len(b) <= crcLen {
						t.Fatalf("%s: step %d tensor %d: a %d-byte blob, marked a repeat %v, a repeat %v", name, s, i, len(b), r, rep[i][s])
					}
					blobs += int64(len(b))
				}
			}
			if st.arena.used != blobs {
				t.Fatalf("%s: the arena holds %d B, the coded blobs %d B", name, st.arena.used, blobs)
			}
			if st.stats.RepeatSteps != repeats {
				t.Fatalf("%s: RepeatSteps %v, want %v", name, st.stats.RepeatSteps, repeats)
			}
			st.mu.Unlock()

			var above [2][]float64
			for s := n; s >= 0; s-- {
				j, c, err := st.Fetch(s)
				if err != nil {
					t.Fatalf("%s: fetch %d: %v", name, s, err)
				}
				if !sameBits(j, js[s]) || !sameBits(c, cs[s]) {
					t.Fatalf("%s: step %d: bits differ", name, s)
				}
				for i, v := range [2][]float64{j, c} {
					if s < n && rep[i][s] != sameArray(v, above[i]) {
						t.Fatalf("%s: step %d tensor %d: repeat %v, fetched the array above: %v", name, s, i, rep[i][s], !rep[i][s])
					}
				}
				if s < n {
					st.Release(s + 1)
				}
				above = [2][]float64{j, c}
			}
			st.Release(0)
			for i, c := range codecs {
				if got := c.dec.Load(); got != coded[i] {
					t.Fatalf("%s: tensor %d met the decoder %d times, want %d", name, i, got, coded[i])
				}
			}
			st.Close()
		})
	}
}

// sweepRepairing runs a reverse sweep over src the way the adjoint's
// degradation ladder does — a degradable fetch failure is repaired with the
// fixture's plaintext and refetched — checking every step's bits, and returns
// the steps whose fetch failed. check, if non-nil, vets each failure.
func sweepRepairing(t *testing.T, src interface {
	Store
	Repairer
}, js, cs [][]float64, check func(step int, err error)) map[int]bool {
	t.Helper()
	failed := map[int]bool{}
	for s := len(js) - 1; s >= 0; s-- {
		j, c, err := src.Fetch(s)
		if err != nil {
			var se *StepError
			if !errors.As(err, &se) || !se.Corrupt || !se.Degradable() || se.Step != s {
				t.Fatalf("fetch %d: %v, want a degradable corruption naming the step", s, err)
			}
			if check != nil {
				check(s, err)
			}
			failed[s] = true
			src.Repair(s, js[s], cs[s])
			if j, c, err = src.Fetch(s); err != nil {
				t.Fatalf("refetch %d after Repair: %v", s, err)
			}
		}
		if !sameBits(j, js[s]) || !sameBits(c, cs[s]) {
			t.Fatalf("step %d: bits differ", s)
		}
		src.Release(s)
	}
	return failed
}

// blobFault is one way an arena blob can go bad, applied to the step records
// with the store's lock held; it damages steps a and, for a swap, b.
type blobFault struct {
	name   string
	damage func(recs []*stepRec, a, b int)
	both   bool // b is damaged too
}

// blobFaults is every fault class the 16-byte file header caught: a flipped
// bit in the payload or in the integrity field, a short blob, a step's J and
// C blobs swapped, and two steps' blobs swapped.
var blobFaults = []blobFault{
	{name: "payload-bit", damage: func(r []*stepRec, a, _ int) { r[a].blobs[1][len(r[a].blobs[1])-1] ^= 0x20 }},
	{name: "crc-bit", damage: func(r []*stepRec, a, _ int) { r[a].blobs[0][1] ^= 0x01 }},
	{name: "one-byte-short", damage: func(r []*stepRec, a, _ int) { r[a].blobs[1] = r[a].blobs[1][:len(r[a].blobs[1])-1] }},
	{name: "j-c-swapped", damage: func(r []*stepRec, a, _ int) { r[a].blobs[0], r[a].blobs[1] = r[a].blobs[1], r[a].blobs[0] }},
	{name: "steps-swapped", both: true, damage: func(r []*stepRec, a, b int) {
		r[a].blobs[0], r[b].blobs[0] = r[b].blobs[0], r[a].blobs[0]
		r[a].blobs[1], r[b].blobs[1] = r[b].blobs[1], r[a].blobs[1]
	}},
}

// TestArenaCRCCatchesEveryFault: each fault class the file header caught is
// caught by the arena blob's 4-byte CRC — not later by the codec — in the
// chain store, on the two highest coded blobs, and under a budget that drops
// the top of the chain, on the two highest kept blobs, the first of which
// decodes against recomputed frames; the fetch quarantines exactly the steps
// it names, and after Repair the sweep is bit-identical. Both chains' tensors
// move on every step: a repeat has no blob to damage.
func TestArenaCRCCatchesEveryFault(t *testing.T) {
	const steps = 24
	jp, cp, js, cs := movingFixture(92, 20, steps)
	bjp, bcp, bjs, bcs := movingFixture(94, 20, steps)
	stores := []struct {
		name   string
		js, cs [][]float64
		mk     func() (Store, *recAccess)
	}{
		{"chain", js, cs, func() (Store, *recAccess) {
			st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
			return st, &recAccess{lock: st.mu.Lock, unlock: st.mu.Unlock, recs: func() []*stepRec { return st.steps }}
		}},
		{"budgeted", bjs, bcs, func() (Store, *recAccess) {
			st := NewCompressedStore(masczip.New(bjp, masczip.Options{}), masczip.New(bcp, masczip.Options{}), bjp, bcp)
			// The windows' reserve and room for about half the blobs.
			st.SetBudget(ReserveBytes(st.depth, len(bjs[0]), len(bcs[0])) + 3<<10)
			st.SetRecompute(func(step int) ([]float64, []float64, error) { return bjs[step], bcs[step], nil })
			return st, &recAccess{lock: st.mu.Lock, unlock: st.mu.Unlock, recs: func() []*stepRec { return st.steps }}
		}},
	}
	for _, sh := range stores {
		for _, f := range blobFaults {
			t.Run(sh.name+"/"+f.name, func(t *testing.T) {
				st, acc := sh.mk()
				defer st.Close()
				js, cs := sh.js, sh.cs
				for s := range js {
					if err := st.Put(s, js[s], cs[s]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatal(err)
				}
				// The two highest steps with blobs: under the budget, the top
				// of the kept prefix.
				kept := st.Stats().TierKeptSteps
				acc.lock()
				var withBlobs []int
				for s, r := range acc.recs() {
					if r.blobs[0] != nil && r.blobs[1] != nil {
						withBlobs = append(withBlobs, s)
					}
				}
				if len(withBlobs) < 2 {
					acc.unlock()
					t.Fatalf("%d steps hold blobs", len(withBlobs))
				}
				a, b := withBlobs[len(withBlobs)-1], withBlobs[len(withBlobs)-2]
				if sh.name == "budgeted" && (kept >= steps-1 || a != kept-1) {
					acc.unlock()
					t.Fatalf("the budget kept %d of %d steps, the highest blob is step %d", kept, steps, a)
				}
				f.damage(acc.recs(), a, b)
				acc.unlock()
				want := map[int]bool{a: true}
				if f.both {
					want[b] = true
				}
				failed := sweepRepairing(t, st.(interface {
					Store
					Repairer
				}), js, cs, func(s int, err error) {
					if !strings.Contains(err.Error(), "CRC32C") {
						t.Fatalf("fetch %d: %v, want the CRC to catch it", s, err)
					}
				})
				if fmt.Sprint(failed) != fmt.Sprint(want) {
					t.Fatalf("quarantined %v, damaged %v", failed, want)
				}
				if stats := st.Stats(); stats.CorruptBlobs != len(want) || stats.Repairs != len(want) {
					t.Fatalf("%d corrupt blobs and %d repairs, want %d", stats.CorruptBlobs, stats.Repairs, len(want))
				}
			})
		}
	}
}

// recAccess reaches a store's step records under its lock.
type recAccess struct {
	lock, unlock func()
	recs         func() []*stepRec
}

// TestHeadRotIsRepaired: the head's window frame is its only copy, so rot
// between EndForward and the fetch of step n is caught by the sidecars
// EndForward took: the step is quarantined as a degradable corruption, one
// Repair heals it, and the sweep is bit-identical to a MemStore's.
func TestHeadRotIsRepaired(t *testing.T) {
	const steps = 20
	n := steps - 1
	jp, cp, js, cs := movingFixture(93, 20, steps)
	for _, queue := range []int{0, 2} {
		for tensor := range 2 {
			t.Run(fmt.Sprintf("queue%d/tensor%d", queue, tensor), func(t *testing.T) {
				jc, cc := masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{})
				var st *CompressedStore
				if queue == 0 {
					st = NewCompressedStore(jc, cc, jp, cp)
				} else {
					st = NewCompressedStoreAsync(jc, cc, jp, cp, queue)
				}
				defer st.Close()
				mem := NewMemStore()
				for s := range js {
					if err := st.Put(s, js[s], cs[s]); err != nil {
						t.Fatal(err)
					}
					if err := mem.Put(s, js[s], cs[s]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatal(err)
				}
				if err := mem.EndForward(); err != nil {
					t.Fatal(err)
				}
				st.mu.Lock()
				blobframe.FlipBit(st.steps[n].t[tensor].flat, 3, 17)
				st.mu.Unlock()
				mj, mc := make([][]float64, steps), make([][]float64, steps)
				for s := range mj {
					var err error
					if mj[s], mc[s], err = mem.Fetch(s); err != nil {
						t.Fatal(err)
					}
				}
				failed := sweepRepairing(t, st, mj, mc, nil)
				if len(failed) != 1 || !failed[n] {
					t.Fatalf("fetches failed at %v, want the head %d alone", failed, n)
				}
				if stats := st.Stats(); stats.Repairs != 1 || stats.CorruptBlobs != 1 {
					t.Fatalf("%d repairs, %d corrupt, want one of each", stats.Repairs, stats.CorruptBlobs)
				}
			})
		}
	}
}

// TestRefetchOfAGoneHeadIsOutOfOrder: the head has no blob, so once the
// sweep has let its frame go a refetch of it is refused with ErrOutOfOrder
// naming the step — not a StepError, and no corruption is counted — sync and
// async.
func TestRefetchOfAGoneHeadIsOutOfOrder(t *testing.T) {
	const steps = 16
	n := steps - 1
	jp, cp, js, cs := movingFixture(94, 20, steps)
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			st := filledStore(t, defaultChunks(), js, cs, chainStore(jp, cp, async))
			sweep(t, st, steps, nil)
			_, _, err := st.Fetch(n)
			if want := fmt.Sprintf("step %d is the head", n); !errors.Is(err, ErrOutOfOrder) || !strings.Contains(err.Error(), want) {
				t.Fatalf("async=%v: fetch of a head that is gone: %v, want ErrOutOfOrder saying %q", async, err, want)
			}
			var se *StepError
			if errors.As(err, &se) {
				t.Fatalf("async=%v: fetch of a head that is gone: a StepError %v", async, se)
			}
			if c := st.Stats().CorruptBlobs; c != 0 {
				t.Fatalf("async=%v: %d corrupt blobs counted", async, c)
			}
			st.Close()
		})
	}
}
