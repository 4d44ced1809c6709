package jactensor

import (
	"errors"
	"math"
	"os"
	"testing"

	"masc/internal/blobframe"
	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/sparse"
)

// faultCase describes one store kind plus a way to damage one stored step
// after the forward pass completed.
type faultCase struct {
	name    string
	mk      func(t *testing.T) Store
	corrupt func(t *testing.T, st Store, step int)
}

func allStoreFaultCases(jp *patternPair) []faultCase {
	mkCompressed := func(async bool) func(t *testing.T) Store {
		return func(t *testing.T) Store {
			opt := masczip.Options{}
			jc, cc := masczip.New(jp.j, opt), masczip.New(jp.c, opt)
			if async {
				return NewCompressedStoreAsync(jc, cc, jp.j, jp.c, 0)
			}
			return NewCompressedStore(jc, cc, jp.j, jp.c)
		}
	}
	flipBlob := func(t *testing.T, st Store, step int) {
		cs := st.(*CompressedStore)
		cs.mu.Lock()
		cs.steps[step].blobs[0][len(cs.steps[step].blobs[0])/2] ^= 0x10
		cs.mu.Unlock()
	}
	return []faultCase{
		{
			name: "mem-bitflip-J",
			mk:   func(t *testing.T) Store { return NewMemStore() },
			corrupt: func(t *testing.T, st Store, step int) {
				blobframe.FlipBit(st.(*MemStore).steps[step][0], 0, 13)
			},
		},
		{
			name: "mem-bitflip-C",
			mk:   func(t *testing.T) Store { return NewMemStore() },
			corrupt: func(t *testing.T, st Store, step int) {
				ms := st.(*MemStore)
				blobframe.FlipBit(ms.steps[step][1], len(ms.steps[step][1])-1, 51)
			},
		},
		{
			name: "disk-bitflip",
			mk: func(t *testing.T) Store {
				st, err := NewDiskStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			corrupt: func(t *testing.T, st Store, step int) {
				ds := st.(*DiskStore)
				f, err := os.OpenFile(ds.f.Name(), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				// Flip one payload byte of the step's J record on disk.
				if _, err := f.WriteAt([]byte{0xFF}, ds.offs[step][0]+blobframe.HeaderSize+2); err != nil {
					t.Fatal(err)
				}
			},
		},
		{name: "compressed-sync-bitflip", mk: mkCompressed(false), corrupt: flipBlob},
		{name: "compressed-async-bitflip", mk: mkCompressed(true), corrupt: flipBlob},
		{
			name: "compressed-sync-truncated",
			mk:   mkCompressed(false),
			corrupt: func(t *testing.T, st Store, step int) {
				cs := st.(*CompressedStore)
				cs.steps[step].blobs[1] = cs.steps[step].blobs[1][:len(cs.steps[step].blobs[1])-3]
			},
		},
	}
}

// patternPair keeps the fixture's two sparsity patterns together.
type patternPair struct{ j, c *sparse.Pattern }

// TestCorruptStepDegradesAndRepairs is the heart of the degradation
// contract, table-driven across all three store kinds: after the forward
// pass, one step's stored bytes are damaged. The reverse sweep must (1)
// fail that step's fetch with a degradable *StepError naming the step, (2)
// keep failing while quarantined, (3) accept recomputed plaintext via
// Repair, and (4) deliver every remaining step bit-identically — including
// the steps below the damaged one, whose decompression chains through the
// repaired plaintext.
func TestCorruptStepDegradesAndRepairs(t *testing.T) {
	jp, cp, js, cs := tensorFixture(78, 30, 10)
	const bad = 4
	for _, fc := range allStoreFaultCases(&patternPair{jp, cp}) {
		t.Run(fc.name, func(t *testing.T) {
			st := fc.mk(t)
			defer st.Close()
			for i := range js {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			fc.corrupt(t, st, bad)

			for i := len(js) - 1; i >= 0; i-- {
				jv, cv, err := st.Fetch(i)
				if i == bad {
					var se *StepError
					if err == nil || !errors.As(err, &se) {
						t.Fatalf("corrupt step fetch returned %v, want *StepError", err)
					}
					if !se.Degradable() || se.Step != bad || se.FailedStep() != bad {
						t.Fatalf("error not degradable at step %d: %+v", bad, se)
					}
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("corruption not classified ErrCorrupt: %v", err)
					}
					// Still quarantined until repaired.
					if _, _, err2 := st.Fetch(bad); err2 == nil {
						t.Fatal("quarantined step must keep failing before Repair")
					}
					st.(Repairer).Repair(bad, js[bad], cs[bad])
					jv, cv, err = st.Fetch(bad)
				}
				if err != nil {
					t.Fatalf("fetch %d: %v", i, err)
				}
				for k := range jv {
					if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
						t.Fatalf("step %d: J[%d] not bit-identical after degradation", i, k)
					}
				}
				for k := range cv {
					if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
						t.Fatalf("step %d: C[%d] not bit-identical after degradation", i, k)
					}
				}
				if i < len(js)-1 {
					st.Release(i + 1)
				}
			}
			stats := st.Stats()
			if stats.CorruptBlobs < 1 {
				t.Fatalf("CorruptBlobs = %d, want ≥ 1", stats.CorruptBlobs)
			}
			if stats.Repairs != 1 {
				t.Fatalf("Repairs = %d, want 1", stats.Repairs)
			}
		})
	}
}

// TestDiskStoreTruncatedSpill models a spill file cut short (crash, full
// disk): the last step's fetch must degrade with a typed error, and Repair
// must restore the sweep.
func TestDiskStoreTruncatedSpill(t *testing.T) {
	_, _, js, cs := tensorFixture(79, 20, 6)
	st, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	// Chop the tail: the last step's C record (and part of its J record)
	// are gone.
	if err := os.Truncate(st.f.Name(), st.offs[len(js)-1][0]+8); err != nil {
		t.Fatal(err)
	}
	last := len(js) - 1
	_, _, err = st.Fetch(last)
	var se *StepError
	if err == nil || !errors.As(err, &se) || !se.Degradable() || se.Step != last {
		t.Fatalf("truncated spill fetch: %v, want degradable *StepError for step %d", err, last)
	}
	st.Repair(last, js[last], cs[last])
	for i := last; i >= 0; i-- {
		jv, _, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d after repair: %v", i, err)
		}
		if math.Float64bits(jv[0]) != math.Float64bits(js[i][0]) {
			t.Fatalf("step %d J[0] mismatch after repair", i)
		}
	}
}

// TestInjectedPanicAtStepNamesStep drives the injector end-to-end through
// the async pipeline: a worker panic at step k must surface as a typed
// error naming k from a later Put/EndForward, and again from Close.
func TestInjectedPanicAtStepNamesStep(t *testing.T) {
	jp, cp, js, cs := tensorFixture(80, 20, 12)
	for _, k := range []int{1, 3, 7} {
		st := NewCompressedStoreAsync(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 0)
		st.Attach(Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 1, PanicAtStep: k})})
		var err error
		for i := range js {
			if err = st.Put(i, js[i], cs[i]); err != nil {
				break
			}
		}
		if err == nil {
			err = st.EndForward()
		}
		var se *StepError
		if err == nil || !errors.As(err, &se) || se.Step != k {
			t.Fatalf("k=%d: want *StepError naming the step, got %v", k, err)
		}
		if cerr := st.Close(); cerr == nil {
			t.Fatalf("k=%d: Close must report the failure", k)
		}
	}
}

// TestInjectedBitRotAllBlobs turns every stored blob bad via the injector:
// the first non-resident fetch must fail loudly (never silently wrong).
func TestInjectedBitRotAllBlobs(t *testing.T) {
	jp, cp, js, cs := tensorFixture(81, 20, 8)
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	st.Attach(Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 2, BitFlipOneIn: 1})})
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	last := len(js) - 1
	if _, _, err := st.Fetch(last); err != nil {
		t.Fatal(err) // chain head is resident plaintext, unaffected
	}
	if _, _, err := st.Fetch(last - 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("universal bit rot must surface as ErrCorrupt, got %v", err)
	}
	if st.Stats().CorruptBlobs < 1 {
		t.Fatal("corruption not counted")
	}
}
