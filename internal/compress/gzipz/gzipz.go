// Package gzipz wraps the standard library's DEFLATE (gzip) as a baseline
// compressor over the raw little-endian bytes of the value array — the
// paper's general-purpose GZIP reference point.
package gzipz

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Compressor implements compress.Compressor with stdlib gzip.
type Compressor struct {
	// Level is the gzip compression level; 0 means gzip.DefaultCompression.
	Level int
}

// New returns a gzip codec at the default level.
func New() *Compressor { return &Compressor{} }

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return "gzip" }

// Lossless implements compress.Compressor.
func (c *Compressor) Lossless() bool { return true }

// Compress implements compress.Compressor. ref is ignored: classic gzip
// sees only the raw byte stream.
func (c *Compressor) Compress(dst []byte, cur, ref []float64) []byte {
	raw := make([]byte, 8*len(cur))
	for i, v := range cur {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	var buf bytes.Buffer
	level := c.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		panic(err) // invalid level is a programming error
	}
	if _, err := w.Write(raw); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return append(dst, buf.Bytes()...)
}

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(cur []float64, blob []byte, ref []float64) error {
	r, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("gzipz: %w", err)
	}
	raw := make([]byte, 8*len(cur))
	if _, err := io.ReadFull(r, raw); err != nil {
		return fmt.Errorf("gzipz: short payload: %w", err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("gzipz: %w", err)
	}
	for i := range cur {
		cur[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return nil
}
