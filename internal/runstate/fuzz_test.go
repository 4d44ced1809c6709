package runstate

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"masc/internal/blobframe"
)

// forwardDonePrefix is a valid journal up to its forward-done record: the
// state in which a done record is grammatical.
func forwardDonePrefix(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prefix.journal")
	w, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendStep(&StepRec{Step: 0, NextH: 1, X: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.ForwardDone(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzRecover: whatever the bytes, the scan never panics and never sizes an
// allocation from a header field alone; it fails only with ErrNoConfig or
// ErrFormatVersion, and what it recovers is a self-consistent prefix that
// recovers to itself.
func FuzzRecover(f *testing.F) {
	path := filepath.Join(f.TempDir(), "run.journal")
	writeSample(f, path)
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		f.Add(full[:cut])
	}
	// The same run as earlier binaries journaled it, with two window records
	// between forward-done and done, cut at every byte past forward-done:
	// recovery must stop at the retired kind wherever the cut lands.
	fwd := 0 // the end of the forward-done frame
	for off := 0; off < len(full); {
		kind, _, plen, err := blobframe.Peek(full[off:])
		if err != nil {
			f.Fatal(err)
		}
		off += blobframe.HeaderSize + plen
		if kind == KindForwardDone {
			fwd = off
		}
	}
	old := append([]byte(nil), full[:fwd]...)
	old = append(old, retiredWindowFrame(0, 0, 2, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, []int{2})...)
	old = append(old, retiredWindowFrame(1, 3, 5, [][]float64{{-1, -2, -3}, {0, 0, 0.5}, {9, 9, 9}}, nil)...)
	old = append(old, full[fwd:]...)
	for cut := fwd + 1; cut <= len(old); cut++ {
		f.Add(old[:cut])
	}
	// Correctly sealed done frames whose payload is nothing but a header of
	// counts — what a CRC cannot catch, so the decoder must. The products
	// wrap to the payload length in 64-bit arithmetic (8·2³¹·2³⁰ ≡ 0), so a
	// length check that multiplies accepts them.
	prefix := forwardDonePrefix(f)
	for _, counts := range [][]uint32{
		{1 << 31, 1 << 30, 0},
		{1 << 31, 0, 0},
		{0, 0, 1<<32 - 1},
	} {
		payload := make([]byte, 0, 4*len(counts))
		for _, c := range counts {
			payload = binary.LittleEndian.AppendUint32(payload, c)
		}
		f.Add(append(prefix[:len(prefix):len(prefix)], blobframe.Wrap(KindDone, 0, payload)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := scan(data)
		if err != nil {
			if !errors.Is(err, ErrNoConfig) && !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if r.Offset <= 0 || r.Offset > int64(len(data)) {
			t.Fatalf("offset %d outside (0, %d]", r.Offset, len(data))
		}
		if r.ForwardDone && r.ForwardSteps != len(r.Steps)-1 {
			t.Fatalf("forward done at %d with %d checkpoints", r.ForwardSteps, len(r.Steps))
		}
		if !r.ForwardDone && r.Done != nil {
			t.Fatal("done record before forward-done")
		}
		for i, s := range r.Steps {
			if s.Step != i || (r.Config.N > 0 && len(s.X) != r.Config.N) {
				t.Fatalf("checkpoint %d: step %d, %d unknowns", i, s.Step, len(s.X))
			}
		}
		again, err := scan(data[:r.Offset])
		if err != nil || again.Offset != r.Offset || len(again.Steps) != len(r.Steps) ||
			again.ForwardDone != r.ForwardDone ||
			(again.Done == nil) != (r.Done == nil) {
			t.Fatalf("the recovered prefix does not recover to itself: %v", err)
		}
	})
}
