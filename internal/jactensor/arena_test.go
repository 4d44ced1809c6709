package jactensor

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// countingChunks wraps a chunk source and counts what it hands out and gets
// back, so the lifetime tests can tell "released" from "still mapped".
type countingChunks struct {
	chunkSource
	allocs, frees int
}

func (c *countingChunks) alloc(n int) ([]byte, error) {
	c.allocs++
	return c.chunkSource.alloc(n)
}

func (c *countingChunks) free(b []byte) {
	c.frees++
	c.chunkSource.free(b)
}

// chunkSources lists every chunk source this binary contains: the portable
// heap one always, plus the platform's own when that is a different type
// (mmap on unix).
func chunkSources() map[string]chunkSource {
	out := map[string]chunkSource{"heap": heapChunks{}}
	if d := defaultChunks(); d != (heapChunks{}) {
		out[fmt.Sprintf("%T", d)] = d
	}
	return out
}

func forEachChunkSource(t *testing.T, fn func(t *testing.T, src chunkSource)) {
	for name, src := range chunkSources() {
		src := src
		t.Run(name, func(t *testing.T) { fn(t, src) })
	}
}

func TestArenaExactLengthSlices(t *testing.T) {
	forEachChunkSource(t, func(t *testing.T, src chunkSource) {
		cs := &countingChunks{chunkSource: src}
		a := blobArena{src: cs}
		if cs.allocs != 0 {
			t.Fatal("arena obtained a chunk before the first blob")
		}
		rng := rand.New(rand.NewSource(1))
		var want, got [][]byte
		total := 0
		// ~1.5 chunks of blobs, so the sequence crosses a chunk boundary;
		// an empty blob (a fully truncated frame) rides along.
		for total < arenaChunkSize*3/2 {
			n := rng.Intn(40 << 10)
			if len(want) == 3 {
				n = 0
			}
			b := make([]byte, n)
			rng.Read(b)
			stored, err := a.append(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(stored) != n || cap(stored) != n {
				t.Fatalf("blob of %d bytes stored with len %d cap %d", n, len(stored), cap(stored))
			}
			want, got = append(want, b), append(got, stored)
			total += n
		}
		// Later appends must not have disturbed earlier blobs.
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("blob %d changed after later appends", i)
			}
		}
		if cs.allocs != 2 || len(a.chunks) != 2 {
			t.Fatalf("%d bytes of blobs took %d chunks, want 2", total, cs.allocs)
		}
		wantOff := int64(0)
		if src.offHeap() {
			wantOff = int64(total)
		}
		if a.offHeapBytes() != wantOff {
			t.Fatalf("offHeapBytes = %d, want %d", a.offHeapBytes(), wantOff)
		}
		a.close()
		if cs.frees != cs.allocs {
			t.Fatalf("close freed %d of %d chunks", cs.frees, cs.allocs)
		}
	})
}

func TestArenaOversizeBlob(t *testing.T) {
	forEachChunkSource(t, func(t *testing.T, src chunkSource) {
		cs := &countingChunks{chunkSource: src}
		a := blobArena{src: cs}
		small := bytes.Repeat([]byte{0xA5}, 1000)
		first, err := a.append(small)
		if err != nil {
			t.Fatal(err)
		}
		big := make([]byte, arenaChunkSize+12345)
		for i := range big {
			big[i] = byte(i * 7)
		}
		stored, err := a.append(big)
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) != len(big) || cap(stored) != len(big) || !bytes.Equal(stored, big) {
			t.Fatalf("oversize blob stored with len %d cap %d", len(stored), cap(stored))
		}
		// The oversize blob took a chunk of its own and left the open one
		// alone: the next small blob lands right behind the first.
		second, err := a.append(small)
		if err != nil {
			t.Fatal(err)
		}
		if cs.allocs != 2 || len(a.tail) != arenaChunkSize-2*len(small) {
			t.Fatalf("small+oversize+small took %d chunks and left a %d-byte tail; the second small blob should continue the open chunk",
				cs.allocs, len(a.tail))
		}
		if !bytes.Equal(first, small) || !bytes.Equal(second, small) {
			t.Fatal("small blobs disturbed")
		}
		a.close()
	})
}

func TestArenaPinDefersRelease(t *testing.T) {
	forEachChunkSource(t, func(t *testing.T, src chunkSource) {
		cs := &countingChunks{chunkSource: src}
		a := blobArena{src: cs}
		blob, err := a.append([]byte("sealed frame"))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.pin(); err != nil {
			t.Fatal(err)
		}
		a.close()
		a.close() // idempotent
		if cs.frees != 0 {
			t.Fatal("close released the chunks under a pinned reader")
		}
		if string(blob) != "sealed frame" {
			t.Fatal("pinned blob unreadable after close")
		}
		if err := a.pin(); !errors.Is(err, ErrClosed) {
			t.Fatalf("pin after close = %v, want ErrClosed", err)
		}
		if _, err := a.append([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after close = %v, want ErrClosed", err)
		}
		a.unpin()
		if cs.frees != 1 || len(a.chunks) != 0 {
			t.Fatalf("last unpin freed %d chunks, %d still held", cs.frees, len(a.chunks))
		}
		a.close()
		if cs.frees != 1 {
			t.Fatal("close after release freed again")
		}
	})
}

// chainStore is a masczip chain over the two patterns, sync or with a queue
// of two.
func chainStore(jp, cp *sparse.Pattern, async bool) *CompressedStore {
	jc, cc := masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{})
	if async {
		return NewCompressedStoreAsync(jc, cc, jp, cp, 0)
	}
	return NewCompressedStore(jc, cc, jp, cp)
}

// filledStore runs the fixture's forward pass through a compressed store
// whose arena draws from src.
func filledStore(t *testing.T, src chunkSource, js, cs [][]float64, st *CompressedStore) *CompressedStore {
	t.Helper()
	st.arena.src = src
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFetchAfterCloseIsTypedError: a fetch that arrives after Close — from
// a fetcher that outlived the run — gets ErrClosed, not a fault on unmapped
// memory, and Close stays idempotent.
func TestFetchAfterCloseIsTypedError(t *testing.T) {
	jp, cp, js, cs := tensorFixture(70, 40, 12)
	forEachChunkSource(t, func(t *testing.T, src chunkSource) {
		for _, async := range []bool{false, true} {
			st := filledStore(t, src, js, cs, chainStore(jp, cp, async))
			n := len(js) - 1
			if _, _, err := st.Fetch(n); err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.Fetch(n - 1); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if len(st.arena.chunks) != 0 {
				t.Fatalf("async=%v: %d chunks still held after Close", async, len(st.arena.chunks))
			}
			if _, _, err := st.Fetch(n - 2); !errors.Is(err, ErrClosed) {
				t.Fatalf("async=%v: Fetch after Close = %v, want ErrClosed", async, err)
			}
			var se *StepError
			if _, _, err := st.Fetch(n - 2); !errors.As(err, &se) || se.Degradable() {
				t.Fatalf("async=%v: closed-store error must not invite a recompute: %v", async, err)
			}
			// Late callers from a goroutine that outlived the run must be
			// harmless too.
			st.Repair(3, js[3], cs[3])
			st.Release(n)
		}
	})
}

// TestReaderCallsAfterCloseDoNothing: once Close has run the reader is dead —
// Release and Repair leave the stats and the resident meter where Close left
// them, and Fetch, of a step the sweep still held or of the next one, fails
// with ErrClosed — sync and async.
func TestReaderCallsAfterCloseDoNothing(t *testing.T) {
	jp, cp, js, cs := tensorFixture(70, 40, 12)
	n := len(js) - 1
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			st := filledStore(t, defaultChunks(), js, cs, chainStore(jp, cp, async))
			for i := n; i > n-3; i-- {
				if _, _, err := st.Fetch(i); err != nil {
					t.Fatalf("async=%v: fetch %d: %v", async, i, err)
				}
				if i < n {
					st.Release(i + 1)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			stats, resident := st.stats, st.resident
			st.mu.Unlock()
			for i := n - 3; i <= n; i++ {
				st.Release(i)
				st.Repair(i, js[i], cs[i])
				if _, _, err := st.Fetch(i); !errors.Is(err, ErrClosed) {
					t.Fatalf("async=%v: Fetch(%d) after Close = %v, want ErrClosed", async, i, err)
				}
			}
			st.mu.Lock()
			if st.stats != stats || st.resident != resident {
				t.Errorf("async=%v: calls after Close moved the store: stats %+v -> %+v, resident %d -> %d",
					async, stats, st.stats, resident, st.resident)
			}
			st.mu.Unlock()
		})
	}
}

// TestArenaReaderRacesClose closes the store while an abandoned fetcher is
// mid-sweep — what an adjoint sweep cancelled mid-fetch leaves behind, for
// the sweep reads every store through its fetcher goroutine. Every fetch
// must either return bit-exact data or ErrClosed; under -race this also
// checks that the pin/close hand-off is properly synchronized, and in async
// mode that Close's drain of the worker does not race the fetcher.
func TestArenaReaderRacesClose(t *testing.T) {
	const steps = 60
	jp, cp, js, cs := tensorFixture(71, 40, steps)
	check := func(i int, jv, cv []float64) error {
		for k := range jv {
			if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
				return fmt.Errorf("step %d: J[%d] mismatch", i, k)
			}
		}
		for k := range cv {
			if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
				return fmt.Errorf("step %d: C[%d] mismatch", i, k)
			}
		}
		return nil
	}
	forEachChunkSource(t, func(t *testing.T, src chunkSource) {
		for _, async := range []bool{false, true} {
			for closeAfter := 0; closeAfter < 12; closeAfter += 3 {
				st := filledStore(t, src, js, cs, chainStore(jp, cp, async))
				errs := make(chan error, 1)
				progress := make(chan struct{}, steps)
				go func() {
					defer close(errs)
					for i := steps - 1; i >= 0; i-- {
						jv, cv, err := st.Fetch(i)
						if errors.Is(err, ErrClosed) {
							return
						}
						if err == nil {
							err = check(i, jv, cv)
						}
						if err != nil {
							errs <- fmt.Errorf("step %d: %w", i, err)
							return
						}
						if i < steps-1 {
							st.Release(i + 1)
						}
						progress <- struct{}{}
					}
				}()
				for i := 0; i < closeAfter; i++ {
					<-progress
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				for err := range errs {
					t.Errorf("async=%v closeAfter=%d: %v", async, closeAfter, err)
				}
				st.mu.Lock()
				pins, chunks := st.arena.pins, len(st.arena.chunks)
				st.mu.Unlock()
				if pins != 0 || chunks != 0 {
					t.Fatalf("async=%v closeAfter=%d: %d pins, %d chunks held after the fetcher finished",
						async, closeAfter, pins, chunks)
				}
			}
		}
	})
}

// TestStoreBlobsLiveInArena pins the tentpole's accounting: the store keeps
// exactly StoredBytes (minus the shared index) in the arena, in whole
// chunks, mapped lazily.
func TestStoreBlobsLiveInArena(t *testing.T) {
	jp, cp, js, cs := tensorFixture(72, 60, 30)
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), nil, nil)
	if len(st.arena.chunks) != 0 {
		t.Fatal("arena obtained a chunk at construction")
	}
	filledStore(t, st.arena.src, js, cs, st)
	var blobBytes int64
	for i, rec := range st.steps {
		if cap(rec.blobs[0]) != len(rec.blobs[0]) || cap(rec.blobs[1]) != len(rec.blobs[1]) {
			t.Fatalf("step %d blob carries slack", i)
		}
		blobBytes += int64(len(rec.blobs[0]) + len(rec.blobs[1]))
	}
	if got := st.Stats().StoredBytes; got != blobBytes {
		t.Fatalf("StoredBytes %d != arena blob bytes %d", got, blobBytes)
	}
	if len(st.arena.chunks) != 1 || len(st.arena.chunks[0]) != arenaChunkSize {
		t.Fatalf("%d blob bytes took %d chunks, want one of %d bytes", blobBytes, len(st.arena.chunks), arenaChunkSize)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
