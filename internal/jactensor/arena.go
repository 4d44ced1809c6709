package jactensor

import "masc/internal/obs"

// arenaChunkSize is the unit the blob arena grows by. Chunks are obtained
// lazily — the first when the first blob arrives, never at construction —
// and a blob larger than a chunk gets a chunk of its own.
const arenaChunkSize = 4 << 20

// chunkSource hands out and takes back the arena's backing memory. The
// production source on unix maps anonymous pages (arena_mmap.go); heapChunks
// is the portable fallback and the second implementation the tests run.
type chunkSource interface {
	// alloc returns n writable bytes that stay valid until free.
	alloc(n int) ([]byte, error)
	// free returns a chunk obtained from alloc; the bytes are dead after it.
	free(chunk []byte)
	// offHeap reports whether the chunks live outside the Go heap, i.e.
	// outside what the GC pacer and runtime/metrics can see.
	offHeap() bool
}

// heapChunks serves chunks from the Go heap: no syscalls, no lifetime
// hazard, but the blobs stay visible to the GC pacer.
type heapChunks struct{}

func (heapChunks) alloc(n int) ([]byte, error) { return make([]byte, n), nil }
func (heapChunks) free([]byte)                 {}
func (heapChunks) offHeap() bool               { return false }

// blobArena is an append-only byte store for sealed blobs: each blob is
// copied in at its exact length, so it costs no capacity slack, no
// size-class rounding and no GC object of its own, and — with an off-heap
// chunk source — no GC headroom either. Nothing is ever freed piecemeal; the
// whole arena goes at once.
//
// Lifetime: a reader pins the arena before it dereferences a blob and unpins
// when done; close marks the arena dead for new appends and pins and returns
// the chunks immediately when nothing is pinned, otherwise on the last
// unpin. A reader that raced close therefore finishes on valid memory, and
// one that arrives later gets ErrClosed instead of a fault.
//
// The arena has no lock of its own: the owning store calls every method
// under its mutex.
type blobArena struct {
	src    chunkSource
	chunks [][]byte // every chunk obtained from src
	tail   []byte   // unused remainder of the newest standard chunk
	used   int64    // total bytes of blobs; pages beyond them are never touched
	pins   int
	closed bool
}

// append copies b into the arena and returns the arena-resident copy, with
// capacity clipped to its length.
func (a *blobArena) append(b []byte) ([]byte, error) {
	if a.closed {
		return nil, ErrClosed
	}
	var dst []byte
	switch {
	case len(b) > arenaChunkSize:
		// Oversize blob: a chunk of its own, leaving the current tail for
		// the blobs that follow.
		chunk, err := a.grow(len(b))
		if err != nil {
			return nil, err
		}
		dst = chunk[:len(b):len(b)]
	case len(b) > len(a.tail):
		chunk, err := a.grow(arenaChunkSize)
		if err != nil {
			return nil, err
		}
		dst, a.tail = chunk[:len(b):len(b)], chunk[len(b):]
	default:
		dst, a.tail = a.tail[:len(b):len(b)], a.tail[len(b):]
	}
	copy(dst, b)
	a.used += int64(len(b))
	if a.src.offHeap() {
		obs.NoteOffHeap(int64(len(b)))
	}
	return dst, nil
}

// grow obtains one more chunk of n bytes from the source.
func (a *blobArena) grow(n int) ([]byte, error) {
	chunk, err := a.src.alloc(n)
	if err != nil {
		return nil, err
	}
	a.chunks = append(a.chunks, chunk)
	return chunk, nil
}

// offHeapBytes returns the blob bytes currently held outside the Go heap:
// what the arena adds to the process's resident memory that neither the GC
// nor runtime/metrics can see (the untouched rest of a chunk costs nothing).
func (a *blobArena) offHeapBytes() int64 {
	if a.src.offHeap() {
		return a.used
	}
	return 0
}

// pin keeps the chunks alive until the matching unpin.
func (a *blobArena) pin() error {
	if a.closed {
		return ErrClosed
	}
	a.pins++
	return nil
}

// unpin drops one pin; the last one after close returns the chunks.
func (a *blobArena) unpin() {
	a.pins--
	if a.closed && a.pins == 0 {
		a.release()
	}
}

// close refuses further appends and pins and returns the chunks as soon as
// no reader holds them. Idempotent.
func (a *blobArena) close() {
	if a.closed {
		return
	}
	a.closed = true
	if a.pins == 0 {
		a.release()
	}
}

func (a *blobArena) release() {
	for _, c := range a.chunks {
		a.src.free(c)
	}
	obs.NoteOffHeap(-a.offHeapBytes())
	a.chunks, a.tail, a.used = nil, nil, 0
}
