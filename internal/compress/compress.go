// Package compress defines the compressor contract shared by MASC and all
// baseline codecs. A Compressor encodes one matrix's value array, optionally
// predicting from a reference array (the temporally adjacent matrix in the
// MASC scheme). Implementations live in subpackages; Registry-style lookup
// for benchmarks is provided by the parent masc module.
package compress

// Compressor encodes/decodes fixed-length float64 value arrays.
//
// Compress appends the encoding of cur to dst and returns the extended
// slice. ref, when non-nil, is the prediction reference (same length as
// cur); codecs that do not exploit a reference may ignore it, but every
// codec must produce a stream that Decompress can invert given the same
// ref. Decompress fills cur (len(cur) tells the codec the element count).
type Compressor interface {
	Name() string
	Compress(dst []byte, cur, ref []float64) []byte
	Decompress(cur []float64, blob []byte, ref []float64) error
	// Lossless reports whether Decompress reproduces bit-exact values.
	Lossless() bool
}

// HistoryCompressor is the optional capability of a codec whose prediction
// reads more than one reference frame. hist holds the frames the caller has
// already kept, nearest first — hist.Near is the ref of Compress — and may be
// empty (a self-contained blob); frames may alias one another. states, when
// the caller has them, are the simulation states the frames were produced at:
// states[0] the coded step's, states[1+i] the i-th frame's; nil means none.
// The codec reads at most HistoryDepth frames, and Decompress needs the frames
// and states the blob was coded against, in the same order. The two-argument
// methods of such a codec are its one-frame, no-state case.
type HistoryCompressor interface {
	Compressor
	// HistoryDepth is the largest number of reference frames the codec reads.
	HistoryDepth() int
	CompressHistory(dst []byte, cur []float64, hist History, states [][]float64) []byte
	DecompressHistory(cur []float64, blob []byte, hist History, states [][]float64) error
}

// BlockLen is the length of a history block: the unit in which a store
// holds, and shares with the neighbouring frame, a reference frame past the
// nearest. Measured on the benchmark's two chain workloads, MOS_T7 ×2 and
// smult20, 32 values keeps the store's peak within 0.4 % of the smallest
// length's on both (DESIGN.md §6.2).
const BlockLen = 32

// Blocks is a frame held in blocks of BlockLen values: value k is
// f[k/BlockLen][k%BlockLen]. Values past the frame's length in its last
// block are padding, never read.
type Blocks []*[BlockLen]float64

// At is value k of the frame.
func (f Blocks) At(k int) float64 { return f[uint(k)/BlockLen][uint(k)%BlockLen] }

// NumBlocks is how many blocks hold n values.
func NumBlocks(n int) int { return (n + BlockLen - 1) / BlockLen }

// History is the reference frames of one call, nearest first. The nearest is
// flat: a codec scans it element by element. The frames past it are read
// only where a deeper prediction needs them, through blocks, so a caller can
// hold them as the blocks they changed.
type History struct {
	Near []float64 // nil: no frame, a self-contained blob
	Far  []Blocks  // the frames past the nearest, nearest first
}

// Len is how many frames h holds.
func (h History) Len() int {
	if h.Near == nil {
		return 0
	}
	return 1 + len(h.Far)
}

// View appends to dst the blocks of the flat frame v: views into v, but for a
// short last block, whose values are copied into tail.
func View(dst Blocks, v []float64, tail *[BlockLen]float64) Blocks {
	k := 0
	for ; k+BlockLen <= len(v); k += BlockLen {
		dst = append(dst, (*[BlockLen]float64)(v[k:k+BlockLen]))
	}
	if k < len(v) {
		*tail = [BlockLen]float64{}
		copy(tail[:], v[k:])
		dst = append(dst, tail)
	}
	return dst
}

// HistoryDepth is how many reference frames c reads: its HistoryDepth where
// it has the capability, one otherwise.
func HistoryDepth(c Compressor) int {
	if hc, ok := c.(HistoryCompressor); ok {
		return hc.HistoryDepth()
	}
	return 1
}

// Encode appends cur's blob to dst, coded against hist (may be empty) and
// states (HistoryCompressor's, may be nil): all of them where c reads a
// history, the nearest frame otherwise.
func Encode(c Compressor, dst []byte, cur []float64, hist History, states [][]float64) []byte {
	if hc, ok := c.(HistoryCompressor); ok {
		return hc.CompressHistory(dst, cur, hist, states)
	}
	return c.Compress(dst, cur, hist.Near)
}

// Decode inverts Encode, given the history and states the blob was coded
// against.
func Decode(c Compressor, cur []float64, blob []byte, hist History, states [][]float64) error {
	if hc, ok := c.(HistoryCompressor); ok {
		return hc.DecompressHistory(cur, blob, hist, states)
	}
	return c.Decompress(cur, blob, hist.Near)
}

// StatesAt is what step i of a chain is coded with beside the n frames above
// it, given the states of the chain's steps: its own state and theirs, or nil
// when there is no frame or any of them is missing.
func StatesAt(states [][]float64, i, n int) [][]float64 {
	if n == 0 || len(states) < i+1+n {
		return nil
	}
	for _, x := range states[i : i+1+n] {
		if x == nil {
			return nil
		}
	}
	return states[i : i+1+n]
}
