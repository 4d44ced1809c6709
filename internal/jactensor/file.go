package jactensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"masc/internal/compress/varint"
	"masc/internal/sparse"
)

// File format for Jacobian tensors (the masc-compress interchange format):
//
//	magic "MASCTNSR" | u16 version | first pattern | C pattern | u32 steps |
//	steps × (first-tensor values, C values) as little-endian float64
//
// Patterns are stored as u32 dimension + delta/uvarint CSR indices (the
// shared-indices encoding). Values are raw: the format is a container for
// compressor experiments, not itself a compressed format.

const (
	fileMagic   = "MASCTNSR"
	fileVersion = 1
)

// WriteTensorFile streams a captured tensor to w.
func WriteTensorFile(w io.Writer, jPat, cPat *sparse.Pattern, js, cs [][]float64) error {
	if len(js) != len(cs) {
		return fmt.Errorf("jactensor: J/C step counts differ (%d vs %d)", len(js), len(cs))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], fileVersion)
	if _, err := bw.Write(u16[:]); err != nil {
		return err
	}
	writePat := func(p *sparse.Pattern) error {
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(p.N))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
		enc := varint.EncodeCSRIndices(p.RowPtr, p.ColIdx)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(enc)))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
		_, err := bw.Write(enc)
		return err
	}
	if err := writePat(jPat); err != nil {
		return err
	}
	if err := writePat(cPat); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(js)))
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	var scratch [8]byte
	writeVals := func(vals []float64, want int) error {
		if len(vals) != want {
			return fmt.Errorf("jactensor: step has %d values, pattern has %d", len(vals), want)
		}
		for _, v := range vals {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			if _, err := bw.Write(scratch[:]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range js {
		if err := writeVals(js[i], jPat.NNZ()); err != nil {
			return err
		}
		if err := writeVals(cs[i], cPat.NNZ()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTensorFile parses a tensor file produced by WriteTensorFile.
func ReadTensorFile(r io.Reader) (jPat, cPat *sparse.Pattern, js, cs [][]float64, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != fileMagic {
		return nil, nil, nil, nil, fmt.Errorf("jactensor: not a tensor file")
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, nil, nil, nil, err
	}
	if v := binary.LittleEndian.Uint16(u16[:]); v != fileVersion {
		return nil, nil, nil, nil, fmt.Errorf("jactensor: unsupported version %d", v)
	}
	readPat := func() (*sparse.Pattern, error) {
		var u32 [4]byte
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(u32[:]))
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, err
		}
		encLen := int(binary.LittleEndian.Uint32(u32[:]))
		if encLen > 1<<30 {
			return nil, fmt.Errorf("jactensor: implausible pattern size %d", encLen)
		}
		enc := make([]byte, encLen)
		if _, err := io.ReadFull(br, enc); err != nil {
			return nil, err
		}
		rowPtr, colIdx, err := varint.DecodeCSRIndices(enc)
		if err != nil {
			return nil, err
		}
		p := &sparse.Pattern{N: n, RowPtr: rowPtr, ColIdx: colIdx}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	if jPat, err = readPat(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("jactensor: J pattern: %w", err)
	}
	if cPat, err = readPat(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("jactensor: C pattern: %w", err)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, nil, nil, nil, err
	}
	steps := int(binary.LittleEndian.Uint32(u32[:]))
	if steps > 1<<28 {
		return nil, nil, nil, nil, fmt.Errorf("jactensor: implausible step count %d", steps)
	}
	readVals := func(n int) ([]float64, error) {
		buf := make([]byte, 8*n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return out, nil
	}
	for s := 0; s < steps; s++ {
		jv, err := readVals(jPat.NNZ())
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("jactensor: step %d: %w", s, err)
		}
		cv, err := readVals(cPat.NNZ())
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("jactensor: step %d: %w", s, err)
		}
		js = append(js, jv)
		cs = append(cs, cv)
	}
	return jPat, cPat, js, cs, nil
}
