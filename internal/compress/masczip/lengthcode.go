package masczip

import (
	"errors"
	"fmt"
	"math/bits"

	"masc/internal/compress/bitstream"
)

// Residual-length tables.
//
// A miss's residual length L = bits.Len64(z) is one of lengthSymbols values,
// 0…64. Each region of a chunk codes its misses' lengths with a canonical
// Huffman code built from that region's own lengths — FPZIP's split of a
// residual into an entropy-coded length and the raw bits below it, carried the
// way DEFLATE carries its codes, as a table of code lengths. The table sits
// right before the region's first length code, past its first miss's marker
// and selector, so a region of hits alone pays nothing for it:
//
//	γ(K)                        K ≥ 1, the number of distinct lengths
//	K × (γ(s − s′) + n)         each length s in ascending order, s′ the one
//	                            before it (−1 before the first), and n, its
//	                            code's length in 4 bits, 1…15 — left out when
//	                            K = 1, whose one length codes in 0 bits
//
// The codes are canonical (DEFLATE's rule: shorter codes first, then by
// length value) and at most maxCodeLen bits long, so a short hit run, the
// miss's marker, its selector and its length code always lie inside one
// peeked 64-bit word. γ codes only positive numbers and a code length has 4
// bits, so a table cannot say K = 0, list its lengths out of order or give a
// code more than 15 bits; what it can say wrong — a γ field with 32 or more
// leading zeros, a length above 64, a code of 0 bits beside others, a set of
// code lengths that over-subscribes the code space or leaves part of it
// unused — is an ErrLengthTable. A complete code leaves no bit string
// undecodable, so a length code itself cannot be wrong.

const (
	lengthSymbols = 65 // residual lengths 0…64
	maxCodeLen    = 15 // the longest length code
	codeLenBits   = 4  // the width of a code length in the table
	noResidual    = 0xff
	// maxPrefix is the most bits the encoder gathers before a residual, so
	// that prefix and length code always fit one word.
	maxPrefix = 64 - maxCodeLen
)

// ErrLengthTable is a region's residual-length table that does not describe
// a complete prefix code over the lengths 0…64; the error wrapping it names
// the chunk and the region.
var ErrLengthTable = errors.New("residual length table")

// codeLengths sets lens[s] to the length of length s's code in a Huffman code
// over counts — 0 where counts[s] is, and for the one length of a single-length
// code — and returns K, how many lengths occur. Equal counts are taken lowest
// length first, and a tie between a length and a subtree takes the length, so
// the tree is as shallow as a Huffman tree for the counts can be; one deeper
// than maxCodeLen is flattened as JPEG's Annex K.3 does it, which keeps the
// code complete. It is the one step of the table both coders share.
func codeLengths(counts *[lengthSymbols]uint32, lens *[lengthSymbols]uint8) int {
	var leaves [lengthSymbols]uint8 // the occurring lengths, by ascending count, then length
	k := 0
	for s, n := range counts {
		lens[s] = 0
		if n == 0 {
			continue
		}
		i := k
		for ; i > 0 && counts[leaves[i-1]] > n; i-- {
			leaves[i] = leaves[i-1]
		}
		leaves[i] = uint8(s)
		k++
	}
	if k < 2 {
		return k
	}
	// Two queues: the leaves in order, then the subtrees in the order they
	// are made, which is by non-decreasing weight.
	var weight [2*lengthSymbols - 1]uint64
	var parent, depth [2*lengthSymbols - 1]uint8
	for i, s := range leaves[:k] {
		weight[i] = uint64(counts[s])
	}
	leaf, node := 0, k
	for next := k; next < 2*k-1; next++ {
		for range 2 {
			i := node
			if leaf < k && (node == next || weight[leaf] <= weight[node]) {
				i = leaf
				leaf++
			} else {
				node++
			}
			weight[next] += weight[i]
			parent[i] = uint8(next)
		}
	}
	var perLen [lengthSymbols]int // leaves at each depth; k leaves are at most k − 1 deep
	for i := 2*k - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	for _, d := range depth[:k] {
		perLen[d]++
	}
	// A pair of the deepest leaves becomes one leaf a level up, and a leaf
	// above them moves a level down beside the other: the Kraft sum stays
	// 1. With at most 65 leaves there is always a leaf above.
	for l := k - 1; l > maxCodeLen; l-- {
		for perLen[l] > 0 {
			j := l - 2
			for perLen[j] == 0 {
				j--
			}
			perLen[l] -= 2
			perLen[l-1]++
			perLen[j+1] += 2
			perLen[j]--
		}
	}
	i := 0 // the rarest lengths take the longest codes
	for l := maxCodeLen; l > 0; l-- {
		for ; perLen[l] > 0; perLen[l]-- {
			lens[leaves[i]] = uint8(l)
			i++
		}
	}
	return k
}

// canonicalCodes gives every length with a code length its code — the codes
// of one code length consecutive in length order, after those of every
// shorter one — and returns the longest code length.
func canonicalCodes(lens *[lengthSymbols]uint8, codes *[lengthSymbols]uint16) uint {
	var perLen, next [maxCodeLen + 1]uint16
	longest := uint8(0)
	for _, n := range lens {
		perLen[n]++
		longest = max(longest, n)
	}
	perLen[0] = 0
	for n := 1; n <= maxCodeLen; n++ {
		next[n] = (next[n-1] + perLen[n-1]) << 1
	}
	for s, n := range lens {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return uint(longest)
}

// lengthCode is the encoder's length code of the region being written: the
// counts its table is built from, and each length's code.
type lengthCode struct {
	counts [lengthSymbols]uint32
	lens   [lengthSymbols]uint8
	codes  [lengthSymbols]uint16
	k      int
}

// build makes the code from the counts.
func (lc *lengthCode) build() {
	lc.k = codeLengths(&lc.counts, &lc.lens)
	canonicalCodes(&lc.lens, &lc.codes)
}

// write writes the table and returns its width in bits.
func (lc *lengthCode) write(w *bitstream.Writer) int {
	n := writeGamma(w, uint64(lc.k))
	prev := -1
	for s, c := range lc.counts {
		if c == 0 {
			continue
		}
		n += writeGamma(w, uint64(s-prev))
		prev = s
		if lc.k > 1 {
			w.WriteBits(uint64(lc.lens[s]), codeLenBits)
			n += codeLenBits
		}
	}
	return n
}

// writeGamma writes γ(v), v ≥ 1, and returns its width.
func writeGamma(w *bitstream.Writer, v uint64) int {
	g := uint(2*bits.Len64(v) - 1) // the value's bits under one zero fewer
	w.WriteBits(v, g)
	return int(g)
}

// readGamma reads a γ field, or reports false where it has 32 or more leading
// zeros, which no field of the format has.
func readGamma(r *bitstream.Reader) (uint64, bool) {
	w, _ := r.Peek64()
	z := uint(bits.LeadingZeros64(w))
	if z >= 32 {
		return 0, false
	}
	r.Skip(2*z + 1)
	return w >> (63 - 2*z), true
}

// readLengthTable reads a region's length table into its decode table: for
// each value of the next rc.lutBits bits, the length whose code they open
// with (low byte) and that code's length (high byte). The decode table lives
// in *buf, grown to the longest code and reused by every region after.
func readLengthTable(r *bitstream.Reader, rc *regionCoder, buf *[]uint16) error {
	k, ok := readGamma(r)
	if !ok {
		return fmt.Errorf("%w: size γ code has 32 or more leading zeros", ErrLengthTable)
	}
	var lens [lengthSymbols]uint8
	s := int64(-1)
	for i := uint64(0); i < k; i++ {
		d, ok := readGamma(r)
		if !ok {
			return fmt.Errorf("%w: symbol γ code has 32 or more leading zeros", ErrLengthTable)
		}
		if s += int64(d); s >= lengthSymbols {
			return fmt.Errorf("%w: length %d is above 64", ErrLengthTable, s)
		}
		if k > 1 {
			if lens[s] = uint8(r.ReadBits(codeLenBits)); lens[s] == 0 {
				return fmt.Errorf("%w: length %d has a code of 0 bits beside %d others", ErrLengthTable, s, k-1)
			}
		}
	}
	if k == 1 {
		rc.lut, rc.lutBits = growLUT(buf, 1), 0
		rc.lut[0] = uint16(s)
		return nil
	}
	kraft := 0
	for _, n := range lens {
		if n > 0 {
			kraft += 1 << (maxCodeLen - n)
		}
	}
	switch {
	case kraft > 1<<maxCodeLen:
		return fmt.Errorf("%w: codes over-subscribed (Kraft sum %d/%d)", ErrLengthTable, kraft, 1<<maxCodeLen)
	case kraft < 1<<maxCodeLen:
		return fmt.Errorf("%w: codes incomplete (Kraft sum %d/%d)", ErrLengthTable, kraft, 1<<maxCodeLen)
	}
	var codes [lengthSymbols]uint16
	longest := canonicalCodes(&lens, &codes)
	rc.lut, rc.lutBits = growLUT(buf, 1<<longest), longest
	for s, n := range lens {
		if n == 0 {
			continue
		}
		pad := longest - uint(n)
		e := uint16(n)<<8 | uint16(s)
		lo := int(codes[s]) << pad
		for i := range rc.lut[lo : lo+1<<pad] {
			rc.lut[lo+i] = e
		}
	}
	return nil
}

// growLUT returns the first n entries of *buf, growing it to hold them.
func growLUT(buf *[]uint16, n int) []uint16 {
	if len(*buf) < n {
		*buf = make([]uint16, n)
	}
	return (*buf)[:n]
}
