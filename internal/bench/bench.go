// Package bench regenerates every table and figure of the MASC paper's
// evaluation (Section 6) plus the Table 1 / Figure 1 motivation data, on
// the laptop-scale workload analogues. Each experiment returns typed rows
// and has a text renderer used by cmd/masc-bench and EXPERIMENTS.md.
package bench

import (
	"fmt"
	"math"
	"time"

	"masc/internal/compress"
	"masc/internal/sparse"
	"masc/internal/transient"
	"masc/internal/workload"
)

// Tensor is an in-memory Jacobian tensor captured from a simulation: the
// raw material of the compression experiments. It is the tensor the facade stores — per step, the device
// matrices G = ∂f/∂x and C = ∂q/∂x, not the assembled J = G + C/h.
type Tensor struct {
	Name       string
	GPat, CPat *sparse.Pattern
	GS         [][]float64 // G values per step
	CS         [][]float64 // C values per step
	XS         [][]float64 // the state each step was produced at
	Steps      int
}

// RawBytes is the value payload size (the paper's S_NZ).
func (t *Tensor) RawBytes() int64 {
	if t.Steps == 0 {
		return 0
	}
	return int64(8*(len(t.GS[0])+len(t.CS[0]))) * int64(t.Steps)
}

// CaptureTensor simulates the dataset and keeps every step's G and C
// values, and the state it was produced at, in memory.
func CaptureTensor(ds *workload.Dataset) (*Tensor, error) {
	tn := &Tensor{Name: ds.Name, GPat: ds.Ckt.GPat, CPat: ds.Ckt.CPat}
	opt := ds.Tran
	opt.CaptureGC = func(_ int, _ float64, _ []float64, G, C *sparse.Matrix) error {
		tn.GS = append(tn.GS, append([]float64(nil), G.Val...))
		tn.CS = append(tn.CS, append([]float64(nil), C.Val...))
		return nil
	}
	res, err := transient.Run(ds.Ckt, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", ds.Name, err)
	}
	tn.XS = res.States
	tn.Steps = len(tn.GS)
	if tn.Steps == 0 {
		return nil, fmt.Errorf("bench: %s captured no steps", ds.Name)
	}
	return tn, nil
}

// CodecResult measures one codec over one tensor.
type CodecResult struct {
	Codec            string
	CompressedBytes  int64
	CR               float64
	CompressTime     time.Duration
	DecompressTime   time.Duration
	CompressMBps     float64
	DecompressMBps   float64
	RoundTripChecked bool
}

// codecPair supplies (possibly stateful) codecs for the G and C tensors.
type codecPair struct {
	name string
	g, c compress.Compressor
}

// historyOf is the frames above step i that codec c reads — the caller holds
// them all: as many as a history codec's depth, the next one otherwise, none
// at the last step — given every frame flat and in blocks.
func historyOf(c compress.Compressor, frames [][]float64, blocks []compress.Blocks, i int) compress.History {
	if i+1 >= len(frames) {
		return compress.History{}
	}
	return compress.History{Near: frames[i+1], Far: blocks[i+2 : min(i+1+compress.HistoryDepth(c), len(frames))]}
}

// blocksOf views every frame in blocks.
func blocksOf(frames [][]float64) []compress.Blocks {
	out := make([]compress.Blocks, len(frames))
	for i, f := range frames {
		out[i] = compress.View(nil, f, new([compress.BlockLen]float64))
	}
	return out
}

// MeasureCodec runs the Algorithm-2 chain over the tensor: step i is
// compressed with the steps above it as reference (the last step with none)
// and their states beside them, as the compressed store does, then
// decompressed in reverse and verified (bit-exact for lossless codecs,
// skipped for lossy ones).
func MeasureCodec(p codecPair, tn *Tensor) (CodecResult, error) {
	res := CodecResult{Codec: p.name}
	n := tn.Steps
	gBlobs := make([][]byte, n)
	cBlobs := make([][]byte, n)
	gBlocks, cBlocks := blocksOf(tn.GS), blocksOf(tn.CS)
	encode := func(c compress.Compressor, dst []byte, frames [][]float64, blocks []compress.Blocks, i int) []byte {
		hist := historyOf(c, frames, blocks, i)
		return compress.Encode(c, dst, frames[i], hist, compress.StatesAt(tn.XS, i, hist.Len()))
	}
	decode := func(c compress.Compressor, cur []float64, blob []byte, frames [][]float64, blocks []compress.Blocks, i int) error {
		hist := historyOf(c, frames, blocks, i)
		return compress.Decode(c, cur, blob, hist, compress.StatesAt(tn.XS, i, hist.Len()))
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		gBlobs[i] = encode(p.g, nil, tn.GS, gBlocks, i)
		cBlobs[i] = encode(p.c, nil, tn.CS, cBlocks, i)
		res.CompressedBytes += int64(len(gBlobs[i]) + len(cBlobs[i]))
	}
	res.CompressTime = time.Since(start)

	lossless := p.g.Lossless() && p.c.Lossless()
	gBuf := make([]float64, len(tn.GS[0]))
	cBuf := make([]float64, len(tn.CS[0]))
	start = time.Now()
	for i := n - 1; i >= 0; i-- {
		if err := decode(p.g, gBuf, gBlobs[i], tn.GS, gBlocks, i); err != nil {
			return res, fmt.Errorf("bench: %s step %d G: %w", p.name, i, err)
		}
		if err := decode(p.c, cBuf, cBlobs[i], tn.CS, cBlocks, i); err != nil {
			return res, fmt.Errorf("bench: %s step %d C: %w", p.name, i, err)
		}
		if lossless {
			for k := range gBuf {
				if math.Float64bits(gBuf[k]) != math.Float64bits(tn.GS[i][k]) {
					return res, fmt.Errorf("bench: %s step %d G[%d] roundtrip mismatch", p.name, i, k)
				}
			}
			for k := range cBuf {
				if math.Float64bits(cBuf[k]) != math.Float64bits(tn.CS[i][k]) {
					return res, fmt.Errorf("bench: %s step %d C[%d] roundtrip mismatch", p.name, i, k)
				}
			}
		}
	}
	res.DecompressTime = time.Since(start)
	res.RoundTripChecked = lossless

	raw := tn.RawBytes()
	res.CR = float64(raw) / float64(res.CompressedBytes)
	mb := float64(raw) / 1e6
	res.CompressMBps = mb / res.CompressTime.Seconds()
	res.DecompressMBps = mb / res.DecompressTime.Seconds()
	return res, nil
}

// fmtBytes renders a byte count with a binary-ish unit, mirroring the
// paper's GB columns.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
