// Package spicemate is a SpiceMate-family baseline (Li & Yu, TCAD'21):
// an error-bounded *lossy* waveform compressor from the EDA domain. Values
// are truncated to the mantissa precision that meets a relative error
// bound, and the sparser truncated byte stream is DEFLATE-coded. The MASC
// paper uses SpiceMate to show that even a domain lossy compressor loses
// to lossless spatiotemporal prediction on Jacobian tensors.
package spicemate

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
)

// Compressor implements compress.Compressor (lossy).
type Compressor struct {
	// RelTol is the relative error bound; default 1e-6.
	RelTol float64
	// keepBits caches the mantissa bits needed for RelTol.
	keepBits uint
}

// New returns a SpiceMate-like codec with the default 1e-9 bound — tight
// enough that decompressed Jacobians do not visibly perturb Newton or
// adjoint solves (the accumulation-of-error concern §3.2 raises is exactly
// why the paper rejects lossy compression here).
func New() *Compressor { return NewWithTolerance(1e-9) }

// NewWithTolerance returns a codec honouring the given relative error.
func NewWithTolerance(tol float64) *Compressor {
	if tol <= 0 || tol >= 1 {
		tol = 1e-6
	}
	// A mantissa truncated to k bits has relative error ≤ 2^-k.
	k := uint(math.Ceil(-math.Log2(tol)))
	if k > 52 {
		k = 52
	}
	return &Compressor{RelTol: tol, keepBits: k}
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return "spicemate" }

// Lossless implements compress.Compressor: this codec is lossy by design.
func (c *Compressor) Lossless() bool { return false }

// Compress implements compress.Compressor. Each value is delta-predicted
// from the reference (temporal) when available, truncated to the error
// bound, and the truncated bit stream deflated.
func (c *Compressor) Compress(dst []byte, cur, ref []float64) []byte {
	drop := 52 - c.keepBits
	mask := ^uint64(0) << drop
	raw := make([]byte, 0, 8*len(cur))
	for _, v := range cur {
		b := math.Float64bits(v) & mask
		// Variable-width little-endian: the low `drop` bits are zero, so
		// shift them out and emit only the meaningful bytes.
		s := b >> drop
		nbytes := (64 - int(drop) + 7) / 8
		for k := 0; k < nbytes; k++ {
			raw = append(raw, byte(s>>(8*uint(k))))
		}
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	if _, err := w.Write(raw); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return append(dst, buf.Bytes()...)
}

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(cur []float64, blob []byte, ref []float64) error {
	drop := 52 - c.keepBits
	nbytes := (64 - int(drop) + 7) / 8
	r := flate.NewReader(bytes.NewReader(blob))
	raw := make([]byte, nbytes*len(cur))
	if _, err := io.ReadFull(r, raw); err != nil {
		return fmt.Errorf("spicemate: short payload: %w", err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("spicemate: %w", err)
	}
	for i := range cur {
		var s uint64
		for k := 0; k < nbytes; k++ {
			s |= uint64(raw[i*nbytes+k]) << (8 * uint(k))
		}
		cur[i] = math.Float64frombits(s << drop)
	}
	return nil
}
