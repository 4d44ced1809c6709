// Package codectest provides the conformance harness shared by every codec
// package's tests: bit-exact roundtrips for lossless codecs, bounded-error
// roundtrips for lossy ones, on data shaped like real Jacobian tensors.
package codectest

import (
	"math"
	"math/rand"
	"testing"

	"masc/internal/compress"
)

// Sequences returns a family of test value sequences: (current, reference)
// pairs with the temporal/spatial structure the codecs are designed around.
func Sequences(seed int64) [][2][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var out [][2][]float64
	add := func(cur, ref []float64) {
		out = append(out, [2][]float64{cur, ref})
	}
	// Smooth temporally correlated pair.
	n := 512
	ref := make([]float64, n)
	cur := make([]float64, n)
	for i := range ref {
		ref[i] = math.Sin(float64(i)/7) * math.Exp(float64(i%13))
		cur[i] = ref[i] * (1 + 1e-9*rng.NormFloat64())
	}
	add(cur, ref)
	// Identical pair (fully static tensor).
	same := make([]float64, n)
	copy(same, ref)
	add(same, ref)
	// No reference.
	add(append([]float64(nil), cur...), nil)
	// Random white noise (incompressible).
	noisy := make([]float64, 200)
	for i := range noisy {
		noisy[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	add(noisy, nil)
	// Special values.
	specials := []float64{0, math.Copysign(0, -1), 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	add(append([]float64(nil), specials...), nil)
	// Tiny arrays.
	add([]float64{42}, nil)
	add([]float64{}, nil)
	return out
}

// RunLossless verifies bit-exact roundtrips over all Sequences.
func RunLossless(t *testing.T, c compress.Compressor) {
	t.Helper()
	if !c.Lossless() {
		t.Fatalf("%s does not claim losslessness", c.Name())
	}
	for si, pair := range Sequences(1234) {
		cur, ref := pair[0], pair[1]
		blob := c.Compress(nil, cur, ref)
		got := make([]float64, len(cur))
		if err := c.Decompress(got, blob, ref); err != nil {
			t.Fatalf("%s: sequence %d: decompress: %v", c.Name(), si, err)
		}
		for i := range cur {
			if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
				t.Fatalf("%s: sequence %d: value %d: got %x, want %x",
					c.Name(), si, i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
			}
		}
	}
}

// RunLossy verifies roundtrips within a relative error bound.
func RunLossy(t *testing.T, c compress.Compressor, relTol float64) {
	t.Helper()
	for si, pair := range Sequences(99) {
		cur, ref := pair[0], pair[1]
		blob := c.Compress(nil, cur, ref)
		got := make([]float64, len(cur))
		if err := c.Decompress(got, blob, ref); err != nil {
			t.Fatalf("%s: sequence %d: decompress: %v", c.Name(), si, err)
		}
		for i := range cur {
			w := cur[i]
			g := got[i]
			if math.IsNaN(w) {
				if !math.IsNaN(g) {
					t.Fatalf("%s: sequence %d: NaN not preserved", c.Name(), si)
				}
				continue
			}
			if math.IsInf(w, 0) {
				if g != w {
					t.Fatalf("%s: sequence %d: Inf not preserved", c.Name(), si)
				}
				continue
			}
			err := math.Abs(g - w)
			if err > relTol*math.Abs(w)+1e-300 {
				t.Fatalf("%s: sequence %d: value %d: %g vs %g exceeds rel %g",
					c.Name(), si, i, g, w, relTol)
			}
		}
	}
}

// RunAppend checks that Compress truly appends to dst.
func RunAppend(t *testing.T, c compress.Compressor) {
	t.Helper()
	cur := []float64{1, 2, 3, 4}
	prefix := []byte{0xAA, 0xBB}
	out := c.Compress(append([]byte(nil), prefix...), cur, nil)
	if len(out) <= len(prefix) || out[0] != 0xAA || out[1] != 0xBB {
		t.Fatalf("%s: Compress does not append to dst", c.Name())
	}
	got := make([]float64, len(cur))
	if err := c.Decompress(got, out[len(prefix):], nil); err != nil {
		t.Fatalf("%s: decompress after append: %v", c.Name(), err)
	}
}

// Frames is the history of flat frames, nearest first, as a history codec
// reads it: the nearest flat, views of the others in blocks. None is a
// self-contained blob's.
func Frames(hist [][]float64) compress.History {
	if len(hist) == 0 {
		return compress.History{}
	}
	h := compress.History{Near: hist[0]}
	for _, v := range hist[1:] {
		h.Far = append(h.Far, compress.View(nil, v, new([compress.BlockLen]float64)))
	}
	return h
}
