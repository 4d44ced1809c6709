// Package varint implements the shared-indices compression path of MASC:
// delta encoding of monotone (or per-row monotone) integer index arrays
// followed by unsigned LEB128 variable-length byte codes. It is used to
// compress the CSR row-pointer and column-index arrays that all Jacobian
// matrices of a simulation share.
package varint

import (
	"encoding/binary"
	"fmt"
)

// zigzag maps signed deltas to unsigned codes, small magnitudes first.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodeCSRIndices compresses a CSR index pair (rowPtr, colIdx).
// Row pointers are monotone, so consecutive deltas are the per-row counts;
// column indices restart their delta chain at each row (columns within a row
// are sorted ascending), which keeps every delta small and non-negative.
func EncodeCSRIndices(rowPtr, colIdx []int32) []byte {
	dst := make([]byte, 0, len(rowPtr)+len(colIdx))
	dst = binary.AppendUvarint(dst, uint64(len(rowPtr)))
	prev := int32(0)
	for _, p := range rowPtr {
		dst = binary.AppendUvarint(dst, uint64(p-prev))
		prev = p
	}
	dst = binary.AppendUvarint(dst, uint64(len(colIdx)))
	nrows := len(rowPtr) - 1
	for r := 0; r < nrows; r++ {
		prevCol := int64(0)
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			c := int64(colIdx[k])
			dst = binary.AppendUvarint(dst, zigzag(c-prevCol))
			prevCol = c
		}
	}
	return dst
}

// DecodeCSRIndices reverses EncodeCSRIndices.
func DecodeCSRIndices(src []byte) (rowPtr, colIdx []int32, err error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("varint: bad rowPtr length")
	}
	off := k
	rowPtr = make([]int32, n)
	prev := int32(0)
	for i := range rowPtr {
		u, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("varint: truncated rowPtr at %d", i)
		}
		off += k
		prev += int32(u)
		rowPtr[i] = prev
	}
	m, k := binary.Uvarint(src[off:])
	if k <= 0 {
		return nil, nil, fmt.Errorf("varint: bad colIdx length")
	}
	off += k
	colIdx = make([]int32, m)
	if len(rowPtr) == 0 {
		if m != 0 {
			return nil, nil, fmt.Errorf("varint: colIdx without rows")
		}
		return rowPtr, colIdx, nil
	}
	nrows := len(rowPtr) - 1
	idx := 0
	for r := 0; r < nrows; r++ {
		prevCol := int64(0)
		for cnt := rowPtr[r+1] - rowPtr[r]; cnt > 0; cnt-- {
			if idx >= len(colIdx) {
				return nil, nil, fmt.Errorf("varint: rowPtr/colIdx length mismatch")
			}
			u, k := binary.Uvarint(src[off:])
			if k <= 0 {
				return nil, nil, fmt.Errorf("varint: truncated colIdx at %d", idx)
			}
			off += k
			prevCol += unzigzag(u)
			colIdx[idx] = int32(prevCol)
			idx++
		}
	}
	if idx != len(colIdx) {
		return nil, nil, fmt.Errorf("varint: decoded %d column indices, header said %d", idx, len(colIdx))
	}
	return rowPtr, colIdx, nil
}
