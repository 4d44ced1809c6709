// Package blobframe frames records read back out of a file — the run
// journal's, the disk store's spill — with a small versioned header and a
// CRC32C (Castagnoli) checksum, so every byte a reader hands back is
// integrity-checked before it is decoded. (In-RAM blobs carry a bare CRC32C:
// their owner already knows the step, kind and length.)
// A flipped bit, a truncated write, or a record read back at the wrong
// offset surfaces as a verification error instead of silently corrupt
// sensitivities.
//
// Frame layout (little-endian, HeaderSize bytes then the payload):
//
//	offset 0  u16  magic 0xB10B
//	offset 2  u8   version (currently 1)
//	offset 3  u8   kind — caller-defined tag ('J', 'C', …)
//	offset 4  u32  step the payload belongs to
//	offset 8  u32  payload length in bytes
//	offset 12 u32  CRC32C of the payload
//	offset 16      payload
//
// The header fields are themselves covered by the verification: magic,
// version, kind and step are checked against the caller's expectation and
// the recorded length against the actual frame size, so a bit flip
// anywhere in the frame — header or payload — is detected.
package blobframe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

const (
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// Version is the current frame format version.
	Version = 1

	magic = 0xB10B
)

// castagnoli uses the CRC32C polynomial, hardware-accelerated on amd64 and
// arm64 — the same checksum storage systems (ext4, Snappy, gRPC) use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Error describes a frame verification failure.
type Error struct {
	Step   int
	Kind   byte
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("blobframe: step %d kind %q: %s", e.Step, e.Kind, e.Reason)
}

// Seal writes the header for the payload frame[HeaderSize:] into
// frame[:HeaderSize] in place. The frame must have been assembled with
// HeaderSize bytes reserved at the front (e.g. by passing a dst of
// make([]byte, HeaderSize, …) to a Compressor).
func Seal(frame []byte, kind byte, step int) {
	payload := frame[HeaderSize:]
	binary.LittleEndian.PutUint16(frame[0:], magic)
	frame[2] = Version
	frame[3] = kind
	binary.LittleEndian.PutUint32(frame[4:], uint32(step))
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[12:], Checksum(payload))
}

// Wrap allocates a new frame around payload.
func Wrap(kind byte, step int, payload []byte) []byte {
	frame := make([]byte, HeaderSize+len(payload))
	copy(frame[HeaderSize:], payload)
	Seal(frame, kind, step)
	return frame
}

// Open verifies a frame against the expected kind and step and returns the
// payload, aliasing frame's backing array. Every failure mode — short
// frame, wrong magic/version/kind/step, length mismatch, checksum mismatch
// — returns a *Error naming the step.
func Open(frame []byte, kind byte, step int) ([]byte, error) {
	fail := func(reason string) ([]byte, error) {
		return nil, &Error{Step: step, Kind: kind, Reason: reason}
	}
	if len(frame) < HeaderSize {
		return fail(fmt.Sprintf("frame truncated to %d bytes (header is %d)", len(frame), HeaderSize))
	}
	if m := binary.LittleEndian.Uint16(frame[0:]); m != magic {
		return fail(fmt.Sprintf("bad magic %#04x", m))
	}
	if v := frame[2]; v != Version {
		return fail(fmt.Sprintf("unsupported version %d", v))
	}
	if k := frame[3]; k != kind {
		return fail(fmt.Sprintf("kind %q, want %q", k, kind))
	}
	if s := binary.LittleEndian.Uint32(frame[4:]); int(s) != step {
		return fail(fmt.Sprintf("frame records step %d", s))
	}
	n := binary.LittleEndian.Uint32(frame[8:])
	if int(n) != len(frame)-HeaderSize {
		return fail(fmt.Sprintf("payload length %d, frame holds %d", n, len(frame)-HeaderSize))
	}
	payload := frame[HeaderSize:]
	if want, got := binary.LittleEndian.Uint32(frame[12:]), Checksum(payload); got != want {
		return fail(fmt.Sprintf("checksum %#08x, want %#08x", got, want))
	}
	return payload, nil
}

// Peek decodes just the header of a frame prefix without verifying the
// payload: it returns the kind, step and payload length recorded in the
// header, validating only magic, version and that the header is complete.
// Sequential scanners (the run journal's recovery pass) use it to find the
// next frame boundary before reading and Open-ing the full frame.
func Peek(header []byte) (kind byte, step int, payloadLen int, err error) {
	if len(header) < HeaderSize {
		return 0, 0, 0, &Error{Step: -1, Kind: 0,
			Reason: fmt.Sprintf("header truncated to %d bytes (need %d)", len(header), HeaderSize)}
	}
	if m := binary.LittleEndian.Uint16(header[0:]); m != magic {
		return 0, 0, 0, &Error{Step: -1, Kind: header[3],
			Reason: fmt.Sprintf("bad magic %#04x", m)}
	}
	if v := header[2]; v != Version {
		return 0, 0, 0, &Error{Step: -1, Kind: header[3],
			Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	kind = header[3]
	step = int(binary.LittleEndian.Uint32(header[4:]))
	payloadLen = int(binary.LittleEndian.Uint32(header[8:]))
	return kind, step, payloadLen, nil
}

// Float64Bytes returns v's backing array viewed as bytes, without copying.
// Used to checksum raw float64 tensors (in-memory store) at memory
// bandwidth; the view is only meaningful within one process, which is
// exactly the lifetime of an in-memory blob.
func Float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// ChecksumFloat64 is Checksum over v's in-memory byte representation.
func ChecksumFloat64(v []float64) uint32 { return Checksum(Float64Bytes(v)) }

// FlipBit flips one bit of v[i] — a test/fault-injection helper that keeps
// the bit-twiddling next to the checksum it is meant to defeat.
func FlipBit(v []float64, i int, bit uint) {
	v[i] = math.Float64frombits(math.Float64bits(v[i]) ^ (1 << (bit & 63)))
}
