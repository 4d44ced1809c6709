package compress_test

import (
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"masc/internal/compress"
	"masc/internal/compress/chimpz"
	"masc/internal/compress/codectest"
	"masc/internal/compress/gzipz"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// plainCodec records the reference each two-argument call was handed.
type plainCodec struct {
	ref []float64
}

func (p *plainCodec) Name() string   { return "plain" }
func (p *plainCodec) Lossless() bool { return true }
func (p *plainCodec) Compress(dst []byte, cur, ref []float64) []byte {
	p.ref = ref
	return append(dst, 'p')
}
func (p *plainCodec) Decompress(cur []float64, blob []byte, ref []float64) error {
	p.ref = ref
	return nil
}

// historyCodec records the history and states each call was handed; its
// two-argument methods must never be reached through Encode or Decode.
type historyCodec struct {
	plainCodec
	depth  int
	hist   compress.History
	states [][]float64
}

func (h *historyCodec) HistoryDepth() int { return h.depth }
func (h *historyCodec) Compress(dst []byte, cur, ref []float64) []byte {
	panic("Encode took the one-frame path of a history codec")
}
func (h *historyCodec) Decompress(cur []float64, blob []byte, ref []float64) error {
	panic("Decode took the one-frame path of a history codec")
}
func (h *historyCodec) CompressHistory(dst []byte, cur []float64, hist compress.History, states [][]float64) []byte {
	h.hist, h.states = hist, states
	return append(dst, 'h')
}
func (h *historyCodec) DecompressHistory(cur []float64, blob []byte, hist compress.History, states [][]float64) error {
	h.hist, h.states = hist, states
	return nil
}

func sameFrame(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameHistory(a, b compress.History) bool {
	if !sameFrame(a.Near, b.Near) || len(a.Far) != len(b.Far) {
		return false
	}
	for i := range a.Far {
		if &a.Far[i][0] != &b.Far[i][0] {
			return false
		}
	}
	return true
}

func sameFrames(a, b [][]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameFrame(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestEncodeDecodeHandEachCodecWhatItReads: a codec with one reference gets
// the nearest frame of the history (none for an empty one), a history codec
// every frame and the states; Decode hands over what Encode did.
func TestEncodeDecodeHandEachCodecWhatItReads(t *testing.T) {
	cur := []float64{1, 2}
	hist := codectest.Frames([][]float64{{3, 4}, {5, 6}, {7, 8}})
	states := [][]float64{{0}, {1}, {2}, {3}}

	t.Run("plain-empty-history", func(t *testing.T) {
		p := &plainCodec{ref: cur}
		if d := compress.HistoryDepth(p); d != 1 {
			t.Fatalf("HistoryDepth = %d, want 1", d)
		}
		compress.Encode(p, nil, cur, compress.History{}, nil)
		if p.ref != nil {
			t.Fatalf("Encode handed ref %v, want nil", p.ref)
		}
		p.ref = cur
		if err := compress.Decode(p, cur, []byte{'p'}, compress.History{}, nil); err != nil || p.ref != nil {
			t.Fatalf("Decode handed ref %v (%v), want nil", p.ref, err)
		}
	})
	t.Run("plain-history", func(t *testing.T) {
		p := &plainCodec{}
		blob := compress.Encode(p, []byte{'x'}, cur, hist, states)
		if string(blob) != "xp" {
			t.Fatalf("Encode did not append to dst: %q", blob)
		}
		if !sameFrame(p.ref, hist.Near) {
			t.Fatalf("Encode handed ref %v, want the nearest frame %v", p.ref, hist.Near)
		}
		p.ref = nil
		if err := compress.Decode(p, cur, blob[1:], hist, states); err != nil || !sameFrame(p.ref, hist.Near) {
			t.Fatalf("Decode handed ref %v (%v), want the nearest frame", p.ref, err)
		}
	})
	t.Run("history", func(t *testing.T) {
		h := &historyCodec{depth: 3}
		if d := compress.HistoryDepth(h); d != 3 {
			t.Fatalf("HistoryDepth = %d, want 3", d)
		}
		if blob := compress.Encode(h, nil, cur, hist, states); string(blob) != "h" {
			t.Fatalf("Encode wrote %q", blob)
		}
		if !sameHistory(h.hist, hist) || !sameFrames(h.states, states) {
			t.Fatalf("Encode handed %d frames and %d states, want all %d and %d",
				h.hist.Len(), len(h.states), hist.Len(), len(states))
		}
		h.hist, h.states = compress.History{}, nil
		if err := compress.Decode(h, cur, []byte{'h'}, hist, states); err != nil ||
			!sameHistory(h.hist, hist) || !sameFrames(h.states, states) {
			t.Fatalf("Decode handed %d frames and %d states (%v)", h.hist.Len(), len(h.states), err)
		}
	})
}

// TestEncodeDecodeRoundTrip: a frame coded against a history comes back
// bit-exact through Decode given the same history, for codecs that read
// every frame and codecs that read only the nearest.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	const n = 12
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(int32(i), int32(i))
		b.Add(int32(i), int32((i+1)%n))
		b.Add(int32((i+1)%n), int32(i))
	}
	pat := b.Build()
	// frames[0] is the coded step, frames[1:] the steps above it, nearest
	// first: a smooth drift a temporal predictor extrapolates.
	frames := make([][]float64, 5)
	for s := range frames {
		frames[s] = make([]float64, pat.NNZ())
		for k := range frames[s] {
			frames[s][k] = 1e-3 * math.Sin(0.37*float64(k)+0.05*float64(s))
		}
	}
	cur, hist := frames[0], codectest.Frames(frames[1:])

	for _, tc := range []struct {
		name string
		mk   func() compress.Compressor
	}{
		{"masczip", func() compress.Compressor { return masczip.New(pat, masczip.Options{}) }},
		{"masczip-markov", func() compress.Compressor { return masczip.New(pat, masczip.Options{Markov: true}) }},
		{"chimp-temporal", func() compress.Compressor { return chimpz.NewTemporal() }},
		{"gzip", func() compress.Compressor { return gzipz.New() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := compress.Encode(tc.mk(), nil, cur, hist, nil)
			got := make([]float64, len(cur))
			if err := compress.Decode(tc.mk(), got, blob, hist, nil); err != nil {
				t.Fatal(err)
			}
			for k := range cur {
				if math.Float64bits(got[k]) != math.Float64bits(cur[k]) {
					t.Fatalf("value %d: decoded %x, coded %x", k,
						math.Float64bits(got[k]), math.Float64bits(cur[k]))
				}
			}
		})
	}
}

// TestBlocksViewTheFrame: a flat frame's blocks are views into it, but for a
// short last block, a copy; At reads every value back, and a frame of whole
// blocks needs no copy.
func TestBlocksViewTheFrame(t *testing.T) {
	for _, n := range []int{0, 1, compress.BlockLen - 1, compress.BlockLen, 3*compress.BlockLen + 5} {
		v := make([]float64, n)
		for k := range v {
			v[k] = float64(k) + 0.5
		}
		var tail [compress.BlockLen]float64
		b := compress.View(nil, v, &tail)
		if len(b) != compress.NumBlocks(n) {
			t.Fatalf("n=%d: %d blocks, want %d", n, len(b), compress.NumBlocks(n))
		}
		for k := range v {
			if b.At(k) != v[k] {
				t.Fatalf("n=%d: value %d reads %v, want %v", n, k, b.At(k), v[k])
			}
		}
		for i, blk := range b {
			if short := (i+1)*compress.BlockLen > n; short != (blk == &tail) || !short && &blk[0] != &v[i*compress.BlockLen] {
				t.Fatalf("n=%d: block %d is not a view into the frame, or its short tail not the copy", n, i)
			}
		}
	}
	if h := codectest.Frames(nil); h.Len() != 0 || h.Near != nil {
		t.Fatalf("Frames(nil) holds %d frames", h.Len())
	}
}

// TestStatesAt: step i of a chain is coded with its own state and those of
// the n frames above it, or with none when any of them is missing.
func TestStatesAt(t *testing.T) {
	x := func(v float64) []float64 { return []float64{v} }
	full := [][]float64{x(0), x(1), x(2), x(3), x(4)}
	withGap := [][]float64{x(0), x(1), nil, x(3), x(4)}
	for _, tc := range []struct {
		name   string
		states [][]float64
		i, n   int
		want   []float64 // the first entry of each returned state; nil = none
	}{
		{"no-frame", full, 1, 0, nil},
		{"no-states", nil, 0, 2, nil},
		{"window-past-the-end", full, 3, 2, nil},
		{"complete", full, 1, 3, []float64{1, 2, 3, 4}},
		{"missing-frame-state", withGap, 1, 2, nil},
		{"gap-outside-window", withGap, 3, 1, []float64{3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := compress.StatesAt(tc.states, tc.i, tc.n)
			if tc.want == nil {
				if got != nil {
					t.Fatalf("StatesAt = %v, want nil", got)
				}
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("StatesAt = %v, want states %v", got, tc.want)
			}
			for k, v := range tc.want {
				if got[k][0] != v {
					t.Fatalf("StatesAt = %v, want states %v", got, tc.want)
				}
			}
		})
	}
}

// TestCodecContractStandsAlone: the package every codec implements imports
// nothing else from this module — in particular not the tier scheduler, so
// which codec carries a run is the caller's decision, not the contract's.
func TestCodecContractStandsAlone(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "masc" || strings.HasPrefix(path, "masc/") {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
