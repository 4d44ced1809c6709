package varint

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomCSR(rng *rand.Rand, nrows, maxCols int) (rowPtr, colIdx []int32) {
	rowPtr = make([]int32, nrows+1)
	for r := 0; r < nrows; r++ {
		ncols := rng.Intn(maxCols + 1)
		seen := map[int32]bool{}
		var cols []int32
		for len(cols) < ncols {
			c := int32(rng.Intn(maxCols * 4))
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		colIdx = append(colIdx, cols...)
		rowPtr[r+1] = rowPtr[r] + int32(len(cols))
	}
	return rowPtr, colIdx
}

func TestCSRIndicesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		nrows := rng.Intn(50)
		rowPtr, colIdx := randomCSR(rng, nrows, 30)
		enc := EncodeCSRIndices(rowPtr, colIdx)
		gotRP, gotCI, err := DecodeCSRIndices(enc)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(gotRP, rowPtr) {
			t.Fatalf("iter %d: rowPtr mismatch", iter)
		}
		if len(gotCI) != len(colIdx) {
			t.Fatalf("iter %d: colIdx length %d want %d", iter, len(gotCI), len(colIdx))
		}
		for i := range colIdx {
			if gotCI[i] != colIdx[i] {
				t.Fatalf("iter %d: colIdx[%d] = %d want %d", iter, i, gotCI[i], colIdx[i])
			}
		}
	}
}

func TestCSRIndicesEmpty(t *testing.T) {
	enc := EncodeCSRIndices([]int32{0}, nil)
	rp, ci, err := DecodeCSRIndices(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp) != 1 || rp[0] != 0 || len(ci) != 0 {
		t.Fatalf("got rowPtr=%v colIdx=%v", rp, ci)
	}
}

func TestCSRIndicesCompressionRatio(t *testing.T) {
	// A banded pattern should compress far below the raw 4 bytes/index.
	nrows := 1000
	rowPtr := make([]int32, nrows+1)
	var colIdx []int32
	for r := 0; r < nrows; r++ {
		for d := -2; d <= 2; d++ {
			c := r + d
			if c >= 0 && c < nrows {
				colIdx = append(colIdx, int32(c))
			}
		}
		rowPtr[r+1] = int32(len(colIdx))
	}
	enc := EncodeCSRIndices(rowPtr, colIdx)
	raw := 4 * (len(rowPtr) + len(colIdx))
	if len(enc)*2 > raw {
		t.Fatalf("banded CSR indices barely compressed: %d of %d raw bytes", len(enc), raw)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeCSRIndices(nil); err == nil {
		t.Fatal("expected error on empty CSR input")
	}
	full := EncodeCSRIndices([]int32{0, 2, 3}, []int32{0, 1, 2})
	if _, _, err := DecodeCSRIndices(full[:len(full)-1]); err == nil {
		t.Fatal("expected error on truncated CSR input")
	}
}
