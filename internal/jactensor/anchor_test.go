package jactensor

import (
	"math"
	"sync"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

func anchoredStore(jp, cp *sparse.Pattern, every int, async bool) *CompressedStore {
	var st *CompressedStore
	if async {
		st = NewCompressedStoreAsync(
			masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 2)
	} else {
		st = NewCompressedStore(
			masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	}
	st.SetAnchorEvery(every)
	return st
}

func TestAnchorStepsLayout(t *testing.T) {
	jp, cp, js, cs := tensorFixture(61, 30, 13)
	st := anchoredStore(jp, cp, 4, false)
	if got := st.AnchorSteps(); got != nil {
		t.Fatalf("AnchorSteps before EndForward = %v, want nil", got)
	}
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	// 13 steps (0..12), every 4: anchors 4 and 8 (12 is the head, and the
	// last compressed interior step is 11 — step 12's blob is the head).
	got := st.AnchorSteps()
	want := []int{4, 8, 12}
	if len(got) != len(want) {
		t.Fatalf("AnchorSteps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AnchorSteps = %v, want %v", got, want)
		}
	}
	if ab := st.Stats().AnchorBytes; ab != int64(8*2*(len(js[0])+len(cs[0]))) {
		t.Fatalf("AnchorBytes = %d, want two frames", ab)
	}
}

// TestAnchorBlobStreamIdenticalSyncAsync pins that the async worker cuts
// the chain at the same points the sync path does: byte counts match.
func TestAnchorBlobStreamIdenticalSyncAsync(t *testing.T) {
	jp, cp, js, cs := tensorFixture(62, 35, 21)
	put := func(async bool) Stats {
		st := anchoredStore(jp, cp, 6, async)
		for i := range js {
			if err := st.Put(i, js[i], cs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
		return st.Stats()
	}
	sync, async := put(false), put(true)
	if sync.StoredBytes != async.StoredBytes {
		t.Fatalf("stored bytes diverge: sync %d async %d", sync.StoredBytes, async.StoredBytes)
	}
	if sync.AnchorBytes != async.AnchorBytes {
		t.Fatalf("anchor bytes diverge: sync %d async %d", sync.AnchorBytes, async.AnchorBytes)
	}
}

// TestStoreSlicesConcurrentSweeps runs one slice per window concurrently,
// each fetching its range in reverse, and bit-compares everything against
// the fixture — W readers over one blob sequence, side by side.
func TestStoreSlicesConcurrentSweeps(t *testing.T) {
	const steps = 23
	jp, cp, js, cs := tensorFixture(63, 40, steps)
	for _, async := range []bool{false, true} {
		st := anchoredStore(jp, cp, 5, async)
		for i := range js {
			if err := st.Put(i, js[i], cs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
		tops := st.AnchorSteps() // 5, 10, 15, 20, 22
		var wg sync.WaitGroup
		errs := make([]error, len(tops))
		lo := 0
		for w, hi := range tops {
			sl, err := st.Slice(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(w, lo, hi int, sl *StoreSlice) {
				defer wg.Done()
				for i := hi; i >= lo; i-- {
					jv, cv, err := sl.Fetch(i)
					if err != nil {
						errs[w] = err
						return
					}
					for k := range jv {
						if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
							t.Errorf("window %d step %d: J[%d] mismatch", w, i, k)
							return
						}
					}
					for k := range cv {
						if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
							t.Errorf("window %d step %d: C[%d] mismatch", w, i, k)
							return
						}
					}
					if i < hi {
						sl.Release(i + 1)
					}
				}
				sl.Release(lo)
			}(w, lo, hi, sl)
			lo = hi + 1
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("async=%v window %d: %v", async, w, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMarkovAnchorsAndSlices: the Markov selector's counts carry from blob to
// blob, so an anchor must restart them — a slice between two anchors decodes
// bit-exact with only its own blobs, and async stores the bytes sync does.
func TestMarkovAnchorsAndSlices(t *testing.T) {
	const steps = 24
	jp, cp, js, cs := tensorFixture(19, 6, steps)
	stored := map[bool]int64{}
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			mo := masczip.Options{Markov: true, CalibEvery: 4}
			jc, cc := masczip.New(jp, mo), masczip.New(cp, mo)
			var st *CompressedStore
			if async {
				st = NewCompressedStoreAsync(jc, cc, jp, cp, 2)
			} else {
				st = NewCompressedStore(jc, cc, jp, cp)
			}
			defer st.Close()
			st.SetAnchorEvery(6)
			for i := range js {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			stored[async] = st.Stats().StoredBytes
			anchors := st.AnchorSteps()
			if len(anchors) < 3 {
				t.Fatalf("AnchorSteps() = %v, want ≥3 anchors with cadence 6 over %d steps", anchors, steps)
			}
			lo, hi := anchors[0]+1, anchors[1]
			sl, err := st.Slice(lo, hi)
			if err != nil {
				t.Fatalf("Slice(%d,%d): %v", lo, hi, err)
			}
			for i := hi; i >= lo; i-- {
				jv, cv, err := sl.Fetch(i)
				if err != nil {
					t.Fatalf("slice fetch %d: %v", i, err)
				}
				for k := range jv {
					if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
						t.Fatalf("slice step %d: J[%d] mismatch", i, k)
					}
				}
				for k := range cv {
					if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
						t.Fatalf("slice step %d: C[%d] mismatch", i, k)
					}
				}
				if i < hi {
					sl.Release(i + 1)
				}
			}
			sl.Release(lo)
		})
	}
	if stored[false] != stored[true] {
		t.Fatalf("stored bytes diverge: sync %d async %d", stored[false], stored[true])
	}
}

// TestCorruptAnchorFallsBackToBlob pins the degradation contract: a rotted
// anchor frame is dropped and the fetch silently decodes the step's
// self-contained blob instead — same values, one corruption counted.
func TestCorruptAnchorFallsBackToBlob(t *testing.T) {
	jp, cp, js, cs := tensorFixture(64, 30, 16)
	st := anchoredStore(jp, cp, 5, false)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	st.steps[10].vals[0][3] += 1 // rot after the sidecar was recorded

	// Direct fetch path.
	jv, _, err := st.Fetch(15)
	_ = jv
	if err != nil {
		t.Fatal(err)
	}
	for i := 14; i >= 10; i-- {
		jv, cv, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		for k := range jv {
			if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
				t.Fatalf("step %d: J[%d] mismatch after anchor rot", i, k)
			}
		}
		for k := range cv {
			if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
				t.Fatalf("step %d: C[%d] mismatch after anchor rot", i, k)
			}
		}
		st.Release(i + 1)
	}
	stats := st.Stats()
	if stats.CorruptBlobs != 1 {
		t.Fatalf("CorruptBlobs = %d, want 1", stats.CorruptBlobs)
	}
	// Anchors were {5, 10}; the rotted one at 10 was dropped.
	if stats.AnchorBytes != int64(8*(len(js[0])+len(cs[0]))) {
		t.Fatalf("AnchorBytes = %d, want one surviving frame", stats.AnchorBytes)
	}

	// Slice path: the same rot on another anchor, seen through a slice.
	st.steps[5].vals[0][0] += 1
	sl, err := st.Slice(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	jv2, _, err := sl.Fetch(5)
	if err != nil {
		t.Fatal(err)
	}
	for k := range jv2 {
		if math.Float64bits(jv2[k]) != math.Float64bits(js[5][k]) {
			t.Fatalf("slice: J[%d] mismatch after anchor rot", k)
		}
	}
}

// TestSliceValidation pins the Slice preconditions.
func TestSliceValidation(t *testing.T) {
	jp, cp, js, cs := tensorFixture(65, 25, 9)
	st := anchoredStore(jp, cp, 3, false)
	if _, err := st.Slice(0, 4); err == nil {
		t.Fatal("expected error before EndForward")
	}
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Slice(0, 99); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := st.Slice(5, 2); err == nil {
		t.Fatal("expected inverted-range error")
	}
	if _, err := st.Slice(0, 8); err != nil {
		t.Fatal(err)
	}
}
