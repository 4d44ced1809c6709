package jactensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// tensorFixture builds a steps-long sequence of (J,C) value arrays over an
// MNA-like pattern.
func tensorFixture(seed int64, n, steps int) (jp, cp *sparse.Pattern, js, cs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	build := func(extra int) *sparse.Pattern {
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(int32(i), int32(i))
			j := int32((i + 1) % n)
			b.Add(int32(i), j)
			b.Add(j, int32(i))
		}
		for e := 0; e < extra; e++ {
			b.Add(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		return b.Build()
	}
	jp = build(3 * n)
	cp = build(n)
	jv := make([]float64, jp.NNZ())
	cv := make([]float64, cp.NNZ())
	for i := range jv {
		jv[i] = rng.NormFloat64() * 100
	}
	for i := range cv {
		cv[i] = rng.NormFloat64() * 1e-9
	}
	for s := 0; s < steps; s++ {
		js = append(js, append([]float64(nil), jv...))
		cs = append(cs, append([]float64(nil), cv...))
		// Like a real circuit, only the nonlinear-device slots move
		// between timesteps; linear stamps are bit-identical.
		for i := 0; i < len(jv)/8; i++ {
			jv[rng.Intn(len(jv))] *= 1 + 1e-7*rng.NormFloat64()
		}
		for i := 0; i < len(cv)/7; i++ {
			cv[rng.Intn(len(cv))] *= 1 + 1e-9*rng.NormFloat64()
		}
	}
	return
}

// placementFixture is tensorFixture's patterns with values that compress on
// their own: runs of repeated stamps, with a few entries moving per step.
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

// fillAndVerify pushes the fixture through the store and reads it back in
// reverse, comparing bit-exactly (unless lossy).
func fillAndVerify(t *testing.T, st Store, js, cs [][]float64) {
	t.Helper()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	for i := len(js) - 1; i >= 0; i-- {
		jv, cv, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		for k := range jv {
			if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
				t.Fatalf("step %d: J[%d] mismatch", i, k)
			}
		}
		for k := range cv {
			if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
				t.Fatalf("step %d: C[%d] mismatch", i, k)
			}
		}
		if i < len(js)-1 {
			st.Release(i + 1)
		}
	}
	stats := st.Stats()
	if stats.Steps != len(js) {
		t.Fatalf("stats.Steps = %d, want %d", stats.Steps, len(js))
	}
	if stats.RawBytes != int64(8*(len(js[0])+len(cs[0]))*len(js)) {
		t.Fatalf("stats.RawBytes = %d", stats.RawBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedStoreShrinks(t *testing.T) {
	jp, cp, js, cs := tensorFixture(5, 80, 30)
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.StoredBytes*4 > stats.RawBytes {
		t.Fatalf("compression too weak: stored %d of %d raw", stats.StoredBytes, stats.RawBytes)
	}
	if stats.PeakResident >= stats.RawBytes {
		t.Fatalf("peak resident %d not below raw %d", stats.PeakResident, stats.RawBytes)
	}
}

func TestCompressedStoreOutOfOrderFetch(t *testing.T) {
	jp, cp, js, cs := tensorFixture(6, 20, 6)
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	// Jumping straight to step 2 must fail: step 3's plaintext is absent.
	if _, _, err := st.Fetch(2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("expected ErrOutOfOrder, got %v", err)
	}
	// Fetching in order works, including re-fetching a resident step.
	if _, _, err := st.Fetch(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Fetch(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Fetch(4); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncMatchesSyncBytes is the cross-mode equivalence invariant: the
// async pipeline performs exactly the sync sequence of Compress calls, so
// StoredBytes (and every fetched value) must be byte-identical.
func TestAsyncMatchesSyncBytes(t *testing.T) {
	jp, cp, js, cs := tensorFixture(32, 70, 25)
	mk := func(async bool) *CompressedStore {
		opt := masczip.Options{Markov: true, CalibEvery: 4}
		jc, cc := masczip.New(jp, opt), masczip.New(cp, opt)
		if async {
			return NewCompressedStoreAsync(jc, cc, jp, cp, 0)
		}
		return NewCompressedStore(jc, cc, jp, cp)
	}
	run := func(st *CompressedStore) (Stats, [][]float64) {
		var fetched [][]float64
		for i := range js {
			if err := st.Put(i, js[i], cs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
		for i := len(js) - 1; i >= 0; i-- {
			jv, cv, err := st.Fetch(i)
			if err != nil {
				t.Fatal(err)
			}
			fetched = append(fetched, append([]float64(nil), jv...), append([]float64(nil), cv...))
			if i < len(js)-1 {
				st.Release(i + 1)
			}
		}
		return st.Stats(), fetched
	}
	sStats, sVals := run(mk(false))
	aStats, aVals := run(mk(true))
	if sStats.StoredBytes != aStats.StoredBytes {
		t.Fatalf("StoredBytes diverge: sync %d, async %d", sStats.StoredBytes, aStats.StoredBytes)
	}
	if sStats.Steps != aStats.Steps || sStats.RawBytes != aStats.RawBytes {
		t.Fatalf("step accounting diverges: %+v vs %+v", sStats, aStats)
	}
	for k := range sVals {
		for i := range sVals[k] {
			if math.Float64bits(sVals[k][i]) != math.Float64bits(aVals[k][i]) {
				t.Fatalf("reverse-sweep values diverge at fetch %d index %d", k, i)
			}
		}
	}
}

// TestAsyncWorkerErrorSurfaces forces a background compression panic (via
// a value-count change smuggled past Put's validation is impossible, so a
// poisoned codec stands in) and checks the error lands on a later Put or
// on EndForward — not as a panic on the solver thread.
func TestAsyncWorkerErrorSurfaces(t *testing.T) {
	jp, cp, js, cs := tensorFixture(34, 20, 6)
	jc := poisonCodec{Compressor: masczip.New(jp, masczip.Options{}), failOn: 2}
	st := NewCompressedStoreAsync(&jc, masczip.New(cp, masczip.Options{}), jp, cp, 0)
	var putErr error
	for i := range js {
		if putErr = st.Put(i, js[i], cs[i]); putErr != nil {
			break
		}
	}
	endErr := st.EndForward()
	if putErr == nil && endErr == nil {
		t.Fatal("background compression failure never surfaced")
	}
	if err := st.Close(); err == nil {
		t.Fatal("Close must report the pipeline error")
	}
}

// poisonCodec panics on its failOn-th Compress call.
type poisonCodec struct {
	compress.Compressor
	calls, failOn int
}

func (p *poisonCodec) Compress(dst []byte, cur, ref []float64) []byte {
	p.calls++
	if p.calls == p.failOn {
		panic("poisoned compress")
	}
	return p.Compressor.Compress(dst, cur, ref)
}

// TestAsyncQueueHoldsTwoSteps: the depth argument is ignored — a store built
// with 1 or 7 queues two steps, as one built with 0 does.
func TestAsyncQueueHoldsTwoSteps(t *testing.T) {
	jp, cp, _, _ := tensorFixture(37, 8, 1)
	for _, depth := range []int{0, 1, 7} {
		st := NewCompressedStoreAsync(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, depth)
		if got := cap(st.jobs); got != 2 {
			t.Errorf("depth %d: the queue holds %d steps, want 2", depth, got)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAsyncCloseWithoutEndForward(t *testing.T) {
	jp, cp, js, cs := tensorFixture(35, 20, 4)
	opt := masczip.Options{}
	st := NewCompressedStoreAsync(masczip.New(jp, opt), masczip.New(cp, opt), jp, cp, 0)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Abandoning the run must shut the worker down cleanly.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncStallTimeAccounted(t *testing.T) {
	jp, cp, js, cs := tensorFixture(36, 80, 30)
	// slowCodec makes compression the bottleneck so the two-step queue
	// must stall the producer.
	jc := slowCodec{Compressor: masczip.New(jp, masczip.Options{}), delay: time.Millisecond}
	st := NewCompressedStoreAsync(&jc, masczip.New(cp, masczip.Options{}), jp, cp, 0)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().StallTime <= 0 {
		t.Fatal("expected nonzero StallTime with a saturated queue")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// slowCodec adds a fixed delay to every Compress.
type slowCodec struct {
	compress.Compressor
	delay time.Duration
}

func (s *slowCodec) Compress(dst []byte, cur, ref []float64) []byte {
	time.Sleep(s.delay)
	return s.Compressor.Compress(dst, cur, ref)
}

func TestDiskStoreThrottleAccounting(t *testing.T) {
	_, _, js, cs := tensorFixture(9, 40, 6)
	// 10 MB/s: small data, but the simulated time must register.
	st, err := NewDiskStore(t.TempDir(), 10e6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	// Each step spills two blobframe records (J and C), each carrying a
	// fixed header on top of the raw payload.
	wantStored := stats.RawBytes + int64(stats.Steps*2*blobframe.HeaderSize)
	if stats.StoredBytes != wantStored {
		t.Fatalf("disk store stored %d, want raw+frames %d", stats.StoredBytes, wantStored)
	}
	wantMin := float64(stats.RawBytes) / 10e6
	if stats.IOTime.Seconds() < wantMin*0.9 {
		t.Fatalf("throttled IO time %v below the bandwidth model's %vs", stats.IOTime, wantMin)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreReleaseFrees(t *testing.T) {
	_, _, js, cs := tensorFixture(10, 20, 4)
	st := NewMemStore()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	st.Release(2)
	if _, _, err := st.Fetch(2); err == nil {
		t.Fatal("expected error fetching a released step")
	}
	if _, _, err := st.Fetch(1); err != nil {
		t.Fatal(err)
	}
}
