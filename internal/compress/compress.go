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
// already kept, nearest first — hist[0] is the ref of Compress — and may be
// empty (a self-contained blob); frames may alias one another. states, when
// the caller has them, are the simulation states the frames were produced at:
// states[0] the coded step's, states[1+i] hist[i]'s; nil means none. The codec
// reads at most HistoryDepth frames, and Decompress needs the frames and
// states the blob was coded against, in the same order. The two-argument
// methods of such a codec are its one-frame, no-state case.
type HistoryCompressor interface {
	Compressor
	// HistoryDepth is the largest number of reference frames the codec reads.
	HistoryDepth() int
	CompressHistory(dst []byte, cur []float64, hist, states [][]float64) []byte
	DecompressHistory(cur []float64, blob []byte, hist, states [][]float64) error
}

// HistoryDepth is how many reference frames c reads: its HistoryDepth where
// it has the capability, one otherwise.
func HistoryDepth(c Compressor) int {
	if hc, ok := c.(HistoryCompressor); ok {
		return hc.HistoryDepth()
	}
	return 1
}

// Encode appends cur's blob to dst, coded against hist (nearest first, may be
// empty) and states (HistoryCompressor's, may be nil): all of them where c
// reads a history, the nearest frame otherwise.
func Encode(c Compressor, dst []byte, cur []float64, hist, states [][]float64) []byte {
	if hc, ok := c.(HistoryCompressor); ok {
		return hc.CompressHistory(dst, cur, hist, states)
	}
	return c.Compress(dst, cur, nearest(hist))
}

// Decode inverts Encode, given the history and states the blob was coded
// against.
func Decode(c Compressor, cur []float64, blob []byte, hist, states [][]float64) error {
	if hc, ok := c.(HistoryCompressor); ok {
		return hc.DecompressHistory(cur, blob, hist, states)
	}
	return c.Decompress(cur, blob, nearest(hist))
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

func nearest(hist [][]float64) []float64 {
	if len(hist) == 0 {
		return nil
	}
	return hist[0]
}
