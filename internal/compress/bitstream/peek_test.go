package bitstream

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPeek64(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(0x0123456789ABCDEF, 64)
	data := w.Bytes()

	r := NewReader(data)
	word, valid := r.Peek64()
	if valid != 64 {
		t.Fatalf("valid = %d, want 64", valid)
	}
	if want := uint64(0xDEADBEEF)<<32 | 0x01234567; word != want {
		t.Fatalf("word = %#x, want %#x", word, want)
	}
	// Peek must not consume anything.
	if got := r.ReadBits(32); got != 0xDEADBEEF {
		t.Fatalf("ReadBits after Peek64 = %#x", got)
	}
	// Misaligned peek.
	r.ReadBits(4)
	word, valid = r.Peek64()
	if valid != 60 {
		t.Fatalf("valid = %d, want 60", valid)
	}
	if want := uint64(0x123456789ABCDEF) << 4; word != want {
		t.Fatalf("misaligned word = %#x, want %#x", word, want)
	}
}

func TestPeek64PadsPastEnd(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x7, 3)
	r := NewReader(w.Bytes())
	word, valid := r.Peek64()
	if valid != 8 {
		t.Fatalf("valid = %d, want 8 (one padded byte)", valid)
	}
	if word != 0xE0<<56 {
		t.Fatalf("word = %#x, want 0xE0 left-aligned", word)
	}
	r.ReadBits(8)
	if word, valid = r.Peek64(); valid != 0 || word != 0 {
		t.Fatalf("exhausted peek = (%#x, %d), want (0, 0)", word, valid)
	}
}

func TestPeekBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xA5, 8)
	w.WriteBits(0x3C, 8)
	r := NewReader(w.Bytes())
	if got := r.PeekBits(0); got != 0 {
		t.Fatalf("PeekBits(0) = %#x", got)
	}
	if got := r.PeekBits(4); got != 0xA {
		t.Fatalf("PeekBits(4) = %#x, want 0xA", got)
	}
	if got := r.PeekBits(12); got != 0xA53 {
		t.Fatalf("PeekBits(12) = %#x, want 0xA53", got)
	}
	if got := r.ReadBits(16); got != 0xA53C {
		t.Fatalf("stream advanced by PeekBits: ReadBits = %#x", got)
	}
}

// TestSkipMatchesReadBits checks Skip against the reference implementation
// (discarding via ReadBits) for every alignment and width, including
// overruns.
func TestSkipMatchesReadBits(t *testing.T) {
	f := func(seed int64, pre uint8, skip uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(0)
		nbits := rng.Intn(300)
		for i := 0; i < nbits; i++ {
			w.WriteBit(rng.Uint64())
		}
		data := w.Bytes()

		a := NewReader(data)
		b := NewReader(data)
		preBits := uint(pre % 16)
		a.ReadBits(preBits)
		b.ReadBits(preBits)
		n := uint(skip % 512)
		a.Skip(n)
		for rem := n; rem > 0; {
			step := rem
			if step > 64 {
				step = 64
			}
			b.ReadBits(step)
			rem -= step
		}
		if a.BitsRead() != b.BitsRead() {
			return false
		}
		if (a.Err() == nil) != (b.Err() == nil) {
			return false
		}
		// Both readers must agree on everything that follows.
		for i := 0; i < 8; i++ {
			if a.ReadBit() != b.ReadBit() {
				return false
			}
		}
		return (a.Err() == nil) == (b.Err() == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteOnes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 128, 200} {
		w := NewWriter(0)
		w.WriteBits(0, 3) // misalign
		w.WriteOnes(n)
		w.WriteBit(0)
		r := NewReader(w.Bytes())
		r.ReadBits(3)
		got := 0
		for r.ReadBit() == 1 { // ends on the terminator, or on the zero padding an overrun reads
			got++
		}
		if got != n || r.Err() != nil {
			t.Fatalf("WriteOnes(%d): read back a run of %d, err %v", n, got, r.Err())
		}
	}
}

// TestPeekSkipAllocsPinnedZero pins the new word-parallel reader paths at
// zero allocations, matching the guarantee of the scalar paths.
func TestPeekSkipAllocsPinnedZero(t *testing.T) {
	w := NewWriter(1 << 16)
	for i := 0; i < 100; i++ {
		w.WriteOnes(50)
		w.WriteBit(0)
		w.WriteBits(uint64(i), 13)
	}
	data := w.Bytes()
	r := NewReader(data)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Reset(data)
		for r.BitsRead() < len(data)*8-64 {
			w, _ := r.Peek64()
			r.Skip(uint(bits.LeadingZeros64(^w)) + 1) // a run of ones and its terminator, as the masczip decoder counts it
			r.ReadBits(13)
		}
	}); avg != 0 {
		t.Fatalf("peek/skip hot path allocates %.1f per run, want 0", avg)
	}
}
