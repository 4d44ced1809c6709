package jactensor

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"masc/internal/blobframe"
	"masc/internal/faultinject"
	"masc/internal/obs"
	"masc/internal/obs/span"
)

// fastRetry shortens the retry loop to attempts tries with microsecond
// backoff, so fault tests do not sleep through the production bounds.
func fastRetry(attempts int) retryPolicy {
	return retryPolicy{attempts: attempts, base: 10 * time.Microsecond, max: 100 * time.Microsecond, deadline: time.Second}
}

// newDisk is a spill store in dir, closed when the test ends.
func newDisk(t *testing.T, dir string, bps float64) *DiskStore {
	t.Helper()
	st, err := NewDiskStore(dir, bps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// putAll puts every step of js, cs and ends the forward pass.
func putAll(t *testing.T, st *DiskStore, js, cs [][]float64) {
	t.Helper()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
}

// checkStep fails unless step i's fetched values are js[i], cs[i] bit for bit.
func checkStep(t *testing.T, i int, jv, cv []float64, js, cs [][]float64) {
	t.Helper()
	if !sameBits(jv, js[i]) || !sameBits(cv, cs[i]) {
		t.Fatalf("step %d not bit-identical after the round trip", i)
	}
}

// diskRetrySpans is the disk_retry spans rec holds.
func diskRetrySpans(rec *span.Recorder) []span.Record {
	var out []span.Record
	for _, r := range rec.Snapshot() {
		if r.Kind == span.DiskRetry {
			out = append(out, r)
		}
	}
	return out
}

// spanAttr is r's attribute key, or -1 when r has none.
func spanAttr(r span.Record, key string) int64 {
	for _, a := range r.AttrList() {
		if a.Key == key {
			return a.Val
		}
	}
	return -1
}

// scanSpills returns the masc spill files currently present in dir.
func scanSpills(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var spills []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "masc-spill-") {
			spills = append(spills, filepath.Join(dir, e.Name()))
		}
	}
	return spills
}

// TestAppendReadRoundTrip writes 40 steps of arbitrary bit patterns (NaNs
// and subnormals included) and reads them back in shuffled order: every
// record comes back bit for bit from the offset it was appended at, and the
// file holds exactly the records.
func TestAppendReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const steps, nj, nc = 40, 97, 31
	js, cs := make([][]float64, steps), make([][]float64, steps)
	for i := range js {
		js[i], cs[i] = make([]float64, nj), make([]float64, nc)
		for _, v := range [][]float64{js[i], cs[i]} {
			for k := range v {
				v[k] = math.Float64frombits(rng.Uint64())
			}
		}
	}
	st := newDisk(t, t.TempDir(), 0)
	putAll(t, st, js, cs)
	order := rng.Perm(steps)
	for _, i := range order {
		jv, cv, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		checkStep(t, i, jv, cv, js, cs)
	}
	want := int64(steps * (2*blobframe.HeaderSize + 8*(nj+nc)))
	if got := st.Stats().StoredBytes; got != want {
		t.Fatalf("stored %d B, want %d", got, want)
	}
	if fi, err := os.Stat(st.f.Name()); err != nil || fi.Size() != want {
		t.Fatalf("spill file %v (%v), want %d B", fi, err, want)
	}
}

// TestThrottleModelsBandwidth spills 1 MB at 10 MB/s: the write must block
// for ≥ ~0.1 s and count it in Stats.IOTime, and so must the read. The one
// meter counts each operation once, so IOTime never exceeds the wall clock.
func TestThrottleModelsBandwidth(t *testing.T) {
	st := newDisk(t, t.TempDir(), 10e6)
	js, cs := [][]float64{make([]float64, 1<<17)}, [][]float64{make([]float64, 8)}
	start := time.Now()
	putAll(t, st, js, cs)
	if wall := time.Since(start); wall < 90*time.Millisecond {
		t.Fatalf("throttle did not block the write (wall %v)", wall)
	}
	if io := st.Stats().IOTime; io < 90*time.Millisecond {
		t.Fatalf("write IO time %v, want ≥ ~100ms", io)
	}
	jv, cv, err := st.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	checkStep(t, 0, jv, cv, js, cs)
	wall := time.Since(start)
	if io := st.Stats().IOTime; io < 180*time.Millisecond || io > wall {
		t.Fatalf("write+read IO time %v, want ≥ ~200ms and ≤ the wall clock %v", io, wall)
	}
}

// TestReadPastEnd points a record past the end of the file: the fetch fails
// with a degradable error that names the step and wraps io.EOF.
func TestReadPastEnd(t *testing.T) {
	_, _, js, cs := tensorFixture(2, 12, 1)
	st := newDisk(t, t.TempDir(), 0)
	putAll(t, st, js, cs)
	st.offs[0][1] = st.off - 3
	_, _, err := st.Fetch(0)
	var se *StepError
	if !errors.As(err, &se) || !se.Degradable() || se.Step != 0 || se.Tensor != "C" {
		t.Fatalf("fetch past the end: %v, want a degradable *StepError for step 0 tensor C", err)
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("fetch past the end: %v, want io.EOF in the chain", err)
	}
}

// TestCloseRemovesFile: Close removes the spill file, and a second Close is
// a no-op.
func TestCloseRemovesFile(t *testing.T) {
	_, _, js, cs := tensorFixture(3, 12, 2)
	st := newDisk(t, t.TempDir(), 0)
	putAll(t, st, js, cs)
	name := st.f.Name()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("spill file after Close: %v, want it gone", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAbsorbsTransientFaults fails every third attempt once: a single
// retry always recovers it, so every put and fetch succeeds bit for bit and
// the retries are counted.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	_, _, js, cs := tensorFixture(4, 12, 30)
	st := newDisk(t, t.TempDir(), 0)
	st.retry = fastRetry(4)
	in := faultinject.New(faultinject.Profile{Seed: 1, FailOpEvery: 3})
	st.Attach(Attachment{Fault: in})
	putAll(t, st, js, cs)
	for i := len(js) - 1; i >= 0; i-- {
		jv, cv, err := st.Fetch(i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		checkStep(t, i, jv, cv, js, cs)
	}
	if got, want := st.Stats().DiskRetries, int64(in.Stats().OpsFailed); got == 0 || got != want {
		t.Fatalf("DiskRetries = %d, want the %d injected failures", got, want)
	}
}

// TestHardBurstExhaustsRetriesWithTypedError: a burst longer than the retry
// budget fails the put with a non-degradable *StepError whose chain names
// the op, the offset and the attempts and still matches the injected cause.
func TestHardBurstExhaustsRetriesWithTypedError(t *testing.T) {
	_, _, js, cs := tensorFixture(5, 12, 1)
	st := newDisk(t, t.TempDir(), 0)
	st.retry = fastRetry(3)
	st.Attach(Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 1, FailOpEvery: 1, FailOpBurst: 10})})
	err := st.Put(0, js[0], cs[0])
	var se *StepError
	if !errors.As(err, &se) || se.Degradable() || se.Op != "put" || se.Step != 0 || se.Tensor != "J" {
		t.Fatalf("put on a dead device: %v, want a non-degradable put *StepError for step 0 tensor J", err)
	}
	if !strings.Contains(err.Error(), "write at offset 0 failed after 3 attempt(s)") {
		t.Fatalf("error %q does not name the op, offset and attempts", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("underlying cause lost: %v", err)
	}
}

// TestShortReadIsNotRetried: EOF is deterministic, so a read of a truncated
// record fails after one attempt and counts no retry.
func TestShortReadIsNotRetried(t *testing.T) {
	_, _, js, cs := tensorFixture(6, 12, 1)
	st := newDisk(t, t.TempDir(), 0)
	st.retry = fastRetry(4)
	putAll(t, st, js, cs)
	if err := os.Truncate(st.f.Name(), 3); err != nil {
		t.Fatal(err)
	}
	_, _, err := st.Fetch(0)
	if err == nil || !strings.Contains(err.Error(), "read at offset 0 failed after 1 attempt(s)") {
		t.Fatalf("short read: %v, want one attempt at offset 0", err)
	}
	if n := st.Stats().DiskRetries; n != 0 {
		t.Fatalf("DiskRetries = %d, want 0", n)
	}
}

// TestOpsAfterCloseReturnErrClosed: a put after Close fails loud and a fetch
// after it degrades, both wrapping ErrClosed; Close stays idempotent.
func TestOpsAfterCloseReturnErrClosed(t *testing.T) {
	_, _, js, cs := tensorFixture(7, 12, 2)
	st := newDisk(t, t.TempDir(), 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var se *StepError
	if err := st.Put(0, js[0], cs[0]); !errors.Is(err, ErrClosed) || !errors.As(err, &se) || se.Degradable() {
		t.Fatalf("Put after Close: %v, want a non-degradable ErrClosed", err)
	}

	st = newDisk(t, t.TempDir(), 0)
	putAll(t, st, js, cs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Fetch(1); !errors.Is(err, ErrClosed) || !errors.As(err, &se) || !se.Degradable() {
		t.Fatalf("Fetch after Close: %v, want a degradable ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpDeadlineBoundsRetries: on a device that never recovers, the
// per-operation deadline ends the loop long before its attempt budget.
func TestOpDeadlineBoundsRetries(t *testing.T) {
	_, _, js, cs := tensorFixture(8, 12, 1)
	st := newDisk(t, t.TempDir(), 0)
	st.retry = retryPolicy{attempts: 1000, base: 5 * time.Millisecond, max: 5 * time.Millisecond, deadline: 20 * time.Millisecond}
	st.Attach(Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 1, FailOpEvery: 1, FailOpBurst: 1 << 30})})
	start := time.Now()
	err := st.Put(0, js[0], cs[0])
	if err == nil {
		t.Fatal("a permanently broken device must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the op (took %v)", elapsed)
	}
	if !strings.Contains(err.Error(), "op deadline 20ms exceeded") || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %q does not name the deadline and the cause", err)
	}
	if n := st.Stats().DiskRetries; n >= 100 {
		t.Fatalf("%d retries: the deadline did not cut the attempts short", n)
	}
}

// TestNoSpillLeakOnErrorPaths scans the directory: however a store's life
// ends — clean, a failed write, a double close, the file removed under it —
// no spill file remains.
func TestNoSpillLeakOnErrorPaths(t *testing.T) {
	dir := t.TempDir()
	_, _, js, cs := tensorFixture(9, 12, 2)

	st := newDisk(t, dir, 0)
	putAll(t, st, js, cs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = newDisk(t, dir, 0)
	st.retry = fastRetry(2)
	st.Attach(Attachment{Fault: faultinject.New(faultinject.Profile{Seed: 9, FailOpEvery: 1, FailOpBurst: 1 << 30})})
	if err := st.Put(0, js[0], cs[0]); err == nil {
		t.Fatal("expected the injected failure")
	}
	for range 2 {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The file already gone before Close (the OS cleaned the temp dir):
	// Close still succeeds.
	st = newDisk(t, dir, 0)
	if err := os.Remove(st.f.Name()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if left := scanSpills(t, dir); len(left) != 0 {
		t.Fatalf("spill files leaked: %v", left)
	}
}

// TestBackoffDeterministicAndBounded: the backoff is the same on every
// store and run, positive and capped; a new store's is the sequence its
// bounds (1 ms doubling to 50 ms, jitter seed 0x6d617363) have always given.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	delays := func(p *retryPolicy) []time.Duration {
		st := newDisk(t, t.TempDir(), 0)
		if p != nil {
			st.retry = *p
		}
		var ds []time.Duration
		for attempt := 1; attempt <= 8; attempt++ {
			ds = append(ds, st.backoff(attempt))
		}
		return ds
	}
	capped := retryPolicy{attempts: 8, base: time.Millisecond, max: 4 * time.Millisecond}
	d1, d2 := delays(&capped), delays(&capped)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("backoff not deterministic: %v vs %v", d1, d2)
		}
		if d1[i] <= 0 || d1[i] > capped.max {
			t.Fatalf("backoff before retry %d is %v, want in (0, %v]", i+1, d1[i], capped.max)
		}
	}
	want := []time.Duration{871015, 1637740, 3607710, 4449582, 15628915, 28783838, 42804966, 27932070}
	if got := delays(nil); !slices.Equal(got, want) {
		t.Fatalf("default backoff %v, want %v", got, want)
	}
}

// TestCancelDuringDiskBackoff cancels the attached context while a put
// sleeps between attempts at a dead device: the put returns at once with an
// error naming the step and wrapping context.Canceled, and the operation,
// which retried, records its one disk_retry span (ok 0).
func TestCancelDuringDiskBackoff(t *testing.T) {
	_, _, js, cs := tensorFixture(10, 12, 1)
	st := newDisk(t, t.TempDir(), 0)
	st.retry = retryPolicy{attempts: 1000, base: time.Minute, max: time.Minute, deadline: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := span.NewRecorder(64)
	st.Attach(Attachment{
		Obs:   &obs.Observer{Spans: rec},
		Ctx:   ctx,
		Fault: faultinject.New(faultinject.Profile{Seed: 1, FailOpEvery: 1, FailOpBurst: 1 << 30}),
	})
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	err := st.Put(0, js[0], cs[0])
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("put took %v after the cancel", elapsed)
	}
	var se *StepError
	if !errors.As(err, &se) || se.Step != 0 || !strings.Contains(err.Error(), "step 0") {
		t.Fatalf("canceled put: %v, want a *StepError naming step 0", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled put: %v, want context.Canceled in the chain", err)
	}
	spans := diskRetrySpans(rec)
	if len(spans) != 1 {
		t.Fatalf("%d disk_retry spans, want 1", len(spans))
	}
	if ok, attempts := spanAttr(spans[0], "ok"), spanAttr(spans[0], "attempts"); ok != 0 || attempts != 1 {
		t.Fatalf("disk_retry span ok=%d attempts=%d, want ok=0 attempts=1", ok, attempts)
	}
}
