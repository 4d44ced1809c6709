// Package bitstream implements MSB-first bit-granular writers and readers
// used by the residual coders. The writer accumulates bits into a 64-bit
// register and spills whole bytes; the reader mirrors the layout exactly, so
// a stream produced by Writer is consumed bit-for-bit by Reader.
package bitstream

import (
	"encoding/binary"
	"errors"
)

// ErrOverrun is reported by Reader when a read extends past the end of the
// underlying buffer.
var ErrOverrun = errors.New("bitstream: read past end of stream")

// Writer appends bits MSB-first to a growing byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf   []byte
	acc   uint64 // pending bits, left-aligned within the low `n` bits
	n     uint   // number of pending bits in acc (0..7 after spill)
	total int    // total bits written
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Reset discards all written bits, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.n = 0
	w.total = 0
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint64) {
	w.total++
	w.acc = w.acc<<1 | b&1
	w.n++
	if w.n == 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.n = 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
//
// The hot path is word-parallel: after topping off any partial byte, whole
// bytes of v are appended directly (a single 8-byte store for full-word
// writes) instead of being threaded through the accumulator bit by bit.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.total += int(n)
	if w.n != 0 {
		space := 8 - w.n // bits until the current byte completes
		if n < space {
			w.acc = w.acc<<n | v
			w.n += n
			return
		}
		n -= space
		w.buf = append(w.buf, byte(w.acc<<space|v>>n))
		w.acc = 0
		w.n = 0
	}
	// Byte-aligned from here: spill whole bytes straight from v.
	if n == 64 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, v)
		return
	}
	for n >= 8 {
		n -= 8
		w.buf = append(w.buf, byte(v>>n))
	}
	if n > 0 {
		w.acc = v & ((1 << n) - 1)
		w.n = n
	}
}

// WriteOnes appends n '1' bits as word-parallel writes: a run of exact
// temporal hits in the residual coder becomes a handful of 8-byte stores
// instead of n accumulator round-trips.
func (w *Writer) WriteOnes(n int) {
	for ; n >= 64; n -= 64 {
		w.WriteBits(^uint64(0), 64)
	}
	if n > 0 {
		w.WriteBits(^uint64(0), uint(n))
	}
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int { return w.total }

// Bytes returns the encoded stream, padding the final partial byte with
// zero bits. The returned slice aliases the Writer's buffer until the next
// Write or Reset.
func (w *Writer) Bytes() []byte {
	if w.n == 0 {
		return w.buf
	}
	pad := 8 - w.n
	last := byte(w.acc << pad)
	return append(w.buf, last)
}

// AppendTo appends the encoded stream (including the zero-padded final
// partial byte) to dst and returns the extended slice. Unlike Bytes it
// never touches the Writer's own buffer, so the result cannot alias
// subsequently written data — the copy into dst is the only one made,
// which is what lets callers reuse one Writer per chunk across calls
// without a defensive payload copy.
func (w *Writer) AppendTo(dst []byte) []byte {
	dst = append(dst, w.buf...)
	if w.n != 0 {
		dst = append(dst, byte(w.acc<<(8-w.n)))
	}
	return dst
}

// Len reports the length in bytes of the stream Bytes would return.
func (w *Writer) Len() int { return (w.total + 7) / 8 }

// Reader consumes bits MSB-first from a byte buffer.
type Reader struct {
	buf   []byte
	pos   int    // next byte index
	acc   uint64 // buffered bits, right-aligned
	n     uint   // number of buffered bits (0..7 between calls)
	err   error
	total int // bits consumed
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset re-points the reader at buf and clears any error.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc = 0
	r.n = 0
	r.err = nil
	r.total = 0
}

// Err returns the first overrun error encountered, if any.
func (r *Reader) Err() error { return r.err }

// BitsRead reports the total number of bits consumed.
func (r *Reader) BitsRead() int { return r.total }

// ReadBit reads a single bit, returning 0 or 1.
func (r *Reader) ReadBit() uint64 {
	r.total++
	if r.n == 0 {
		if r.pos >= len(r.buf) {
			r.err = ErrOverrun
			return 0
		}
		r.acc = uint64(r.buf[r.pos])
		r.pos++
		r.n = 8
	}
	r.n--
	bit := r.acc >> r.n
	r.acc &= (1 << r.n) - 1
	return bit
}

// Peek64 returns the next up-to-64 bits of the stream left-aligned in a
// word, without consuming them, plus the number of valid bits. Bits past the
// end of the stream are zero — the same padding Bytes applies to the final
// partial byte on the write side — so callers that extract fields from the
// word see exactly what sequential ReadBit/ReadBits calls would have
// returned (modulo the deferred ErrOverrun, which the eventual Skip or read
// still reports).
func (r *Reader) Peek64() (uint64, uint) {
	w := r.acc << (64 - r.n) // r.n == 0 shifts by 64 and yields 0
	valid := r.n
	pos := r.pos
	if pos+8 <= len(r.buf) {
		// Common case: one 8-byte load tops the window up to 64 bits.
		return w | binary.BigEndian.Uint64(r.buf[pos:])>>valid, 64
	}
	for valid <= 56 && pos < len(r.buf) {
		w |= uint64(r.buf[pos]) << (56 - valid)
		pos++
		valid += 8
	}
	if valid < 64 && pos < len(r.buf) {
		w |= uint64(r.buf[pos]) >> (valid - 56)
		valid = 64
	}
	return w, valid
}

// PeekBits returns the next n bits (n in [0,64]) right-aligned without
// consuming them, zero-padded past the end of the stream.
func (r *Reader) PeekBits(n uint) uint64 {
	if n == 0 {
		return 0
	}
	w, _ := r.Peek64()
	return w >> (64 - n)
}

// Skip discards n bits, recording ErrOverrun if the stream ends first.
func (r *Reader) Skip(n uint) {
	r.total += int(n)
	if n <= r.n {
		r.n -= n
		r.acc &= (1 << r.n) - 1
		return
	}
	n -= r.n
	r.acc = 0
	r.n = 0
	whole := int(n / 8)
	if r.pos+whole > len(r.buf) {
		r.pos = len(r.buf)
		r.err = ErrOverrun
		return
	}
	r.pos += whole
	if rem := n % 8; rem != 0 {
		if r.pos >= len(r.buf) {
			r.err = ErrOverrun
			return
		}
		b := uint64(r.buf[r.pos])
		r.pos++
		r.n = 8 - rem
		r.acc = b & ((1 << r.n) - 1)
	}
}

// ReadBits reads n bits (n in [0,64]) MSB-first and returns them
// right-aligned. On overrun it records ErrOverrun and returns the bits that
// were available padded with zeros.
//
// Mirrors WriteBits: drain the partial accumulator, then consume whole
// bytes (a single 8-byte load for aligned full-word reads).
func (r *Reader) ReadBits(n uint) uint64 {
	if n == 0 {
		return 0
	}
	r.total += int(n)
	var out uint64
	if r.n != 0 {
		if n <= r.n {
			shift := r.n - n
			out = r.acc >> shift
			r.n = shift
			r.acc &= (1 << shift) - 1
			return out
		}
		out = r.acc
		n -= r.n
		r.acc = 0
		r.n = 0
	}
	// Byte-aligned from here. n == 64 implies the accumulator was empty on
	// entry (n never exceeds 64), so out is still zero.
	if n == 64 && r.pos+8 <= len(r.buf) {
		out = binary.BigEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
		return out
	}
	for n >= 8 {
		if r.pos >= len(r.buf) {
			r.err = ErrOverrun
			return out << n // pad with zeros
		}
		out = out<<8 | uint64(r.buf[r.pos])
		r.pos++
		n -= 8
	}
	if n > 0 {
		if r.pos >= len(r.buf) {
			r.err = ErrOverrun
			return out << n
		}
		b := uint64(r.buf[r.pos])
		r.pos++
		out = out<<n | b>>(8-n)
		r.n = 8 - n
		r.acc = b & ((1 << r.n) - 1)
	}
	return out
}
