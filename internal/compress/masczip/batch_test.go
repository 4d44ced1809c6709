package masczip

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"masc/internal/compress/codectest"
	"masc/internal/sparse"
)

// runHeavyFrames builds a deterministic frame chain dominated by bit-exact
// temporal hits: most steps touch only a handful of slots (long exact-hit
// runs for the batched coder), and every third step perturbs a contiguous
// band with like-magnitude relative deltas so consecutive residuals share a
// length (a region of few lengths, which its length table codes in few bits).
func runHeavyFrames(rng *rand.Rand, p *sparse.Pattern, steps int) [][]float64 {
	nnz := p.NNZ()
	frames := [][]float64{mnaValues(rng, p, 0.05)}
	for s := 0; s < steps; s++ {
		nv := append([]float64(nil), frames[len(frames)-1]...)
		if s%3 == 2 {
			lo := rng.Intn(nnz)
			n := rng.Intn(nnz/4+1) + 4
			for i := lo; i < lo+n && i < nnz; i++ {
				nv[i] *= 1 + 1e-7*(1+rng.Float64())
			}
		} else {
			for t := 0; t < 3; t++ {
				nv[rng.Intn(nnz)] *= 1 + 1e-6*rng.NormFloat64()
			}
		}
		frames = append(frames, nv)
	}
	return frames
}

// worstCaseFrames builds the chain the run-length code is worst on: in every
// region's flat slot order, a run of exactly 9 hits, a miss, a run of exactly
// 11, a miss, then hit/miss alternating — each long run one bit dearer than a
// bit per hit, no run long enough to win anything back.
func worstCaseFrames(rng *rand.Rand, p *sparse.Pattern, steps int) [][]float64 {
	pl := newPlan(p)
	shape := []bool{9: true, 21: true, 23: true, 25: true, 27: true} // true = miss; 28 positions per cycle
	frames := [][]float64{mnaValues(rng, p, 0.05)}
	for s := 0; s < steps; s++ {
		nv := append([]float64(nil), frames[len(frames)-1]...)
		for _, slots := range [][]int32{pl.uSlots, pl.lSlots, pl.dSlots} {
			for i, slot := range slots {
				if shape[i%len(shape)] {
					nv[slot] *= 1 + 1e-6*(1+rng.Float64())
				}
			}
		}
		frames = append(frames, nv)
	}
	return frames
}

// missRunFrames builds the chain the miss-run count is worst on: in every
// region's flat slot order a hit, then three misses, over and over, each miss
// a step the temporal candidate predicts best — with the stamp candidates off,
// every miss keeps symbol 0, so each run is exactly missRun long and its count
// is γ(1), one bit that covers nothing. The hits are zeros, so the head blob,
// predicted from zeros, has the same shape.
func missRunFrames(rng *rand.Rand, p *sparse.Pattern, steps int) [][]float64 {
	pl := newPlan(p)
	regions := [][]int32{pl.uSlots, pl.lSlots, pl.dSlots}
	v := mnaValues(rng, p, 0.05)
	for _, slots := range regions {
		for i := 0; i < len(slots); i += missRun + 1 {
			v[slots[i]] = 0
		}
	}
	frames := [][]float64{v}
	for s := 0; s < steps; s++ {
		nv := append([]float64(nil), frames[len(frames)-1]...)
		for _, slots := range regions {
			for i, slot := range slots {
				if i%(missRun+1) != 0 {
					nv[slot] *= 1 + 1e-6*(1+rng.Float64())
				}
			}
		}
		frames = append(frames, nv)
	}
	return frames
}

// batchFixtures returns the (options, frame-chain) matrix the wire-identity
// property test runs over: every coding mode (best-fit, Markov with a short
// calibration period, chunked) and every ablation switch, crossed with a
// generic evolving chain, a run-heavy chain, a fully static chain, a
// specials-laced chain, an exactly symmetric pair-stamp chain (the mate and
// stamp hit predictors win every chained blob) and the worst cases of the hit
// and the miss run-length codes.
func batchFixtures() []struct {
	name   string
	opt    Options
	p      *sparse.Pattern
	frames [][]float64
} {
	type fix = struct {
		name   string
		opt    Options
		p      *sparse.Pattern
		frames [][]float64
	}
	var out []fix

	opts := []struct {
		name string
		opt  Options
	}{
		{"plain", Options{}},
		{"markov", Options{Markov: true, CalibEvery: 2}},
		{"chunked", Options{Workers: 3}},
		{"markov-chunked", Options{Markov: true, CalibEvery: 3, Workers: 4}},
		{"stats", Options{CollectStats: true}},
		{"no-stamp", Options{DisableStamp: true}},
		{"no-lastvalue", Options{DisableLastValue: true}},
	}
	chains := []struct {
		name  string
		build func(rng *rand.Rand, p *sparse.Pattern) [][]float64
	}{
		{"evolving", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			v := mnaValues(rng, p, 0.05)
			fr := [][]float64{v}
			for i := 0; i < 5; i++ {
				v = evolve(rng, v, 1e-6)
				fr = append(fr, v)
			}
			return fr
		}},
		{"run-heavy", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			return runHeavyFrames(rng, p, 7)
		}},
		{"static", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			v := mnaValues(rng, p, 0.01)
			return [][]float64{v, v, v}
		}},
		{"specials", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			v := mnaValues(rng, p, 0.05)
			specials := []float64{0, math.Copysign(0, -1),
				math.Inf(1), math.Inf(-1), math.NaN(),
				math.MaxFloat64, math.SmallestNonzeroFloat64}
			w := append([]float64(nil), v...)
			for i := 0; i < len(w); i += 5 {
				w[i] = specials[(i/5)%len(specials)]
			}
			return [][]float64{w, v, w}
		}},
		{"pair-stamp", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			return pairStampFrames(rng, p, 5, true)
		}},
		{"worst-case", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			return worstCaseFrames(rng, p, 4)
		}},
		{"miss-runs", func(rng *rand.Rand, p *sparse.Pattern) [][]float64 {
			return missRunFrames(rng, p, 4)
		}},
	}
	for _, o := range opts {
		for _, ch := range chains {
			rng := rand.New(rand.NewSource(99))
			p := mnaPattern(rng, 18, 22)
			out = append(out, fix{o.name + "/" + ch.name, o.opt, p, ch.build(rng, p)})
		}
	}
	return out
}

// TestBatchedWireIdentity is the property test gating the word-parallel
// paths: across every fixture, the batched encoder must emit byte-identical
// blobs to the element-at-a-time reference path, each decoder must invert
// the other's blobs bit-exactly, and the encoder statistics must agree.
func TestBatchedWireIdentity(t *testing.T) {
	for _, fx := range batchFixtures() {
		for _, depth := range []int{1, MaxOrder + 1} {
			t.Run(fmt.Sprintf("%s/depth%d", fx.name, depth), func(t *testing.T) {
				encode := func(newCodec func(*sparse.Pattern, Options) *Compressor) ([][]byte, Stats) {
					c := newCodec(fx.p, fx.opt)
					return encodeChainDepth(c, fx.frames, depth), c.Stats()
				}
				batched, batchedStats := encode(New)
				scalar, scalarStats := encode(newReference)

				for i := range batched {
					if !bytes.Equal(batched[i], scalar[i]) {
						t.Fatalf("blob %d: batched encode diverged from scalar (%d vs %d bytes)",
							i, len(batched[i]), len(scalar[i]))
					}
				}
				if batchedStats != scalarStats {
					t.Fatalf("stats diverged:\nbatched: %+v\nscalar:  %+v", batchedStats, scalarStats)
				}
				// Batched decoder over scalar-encoded blobs (and vice versa —
				// the blobs are identical, so one decode per mode covers both).
				decodeChainDepth(t, New(fx.p, fx.opt), scalar, fx.frames, depth)
				decodeChainDepth(t, newReference(fx.p, fx.opt), batched, fx.frames, depth)
			})
		}
	}
}

// newBits codes frames as a store chain with the production coder and returns
// the chunk streams' total length in bits.
func newBits(p *sparse.Pattern, opt Options, frames [][]float64) int {
	c := New(p, opt)
	n := 0
	for i := range frames {
		var ref []float64
		if i+1 < len(frames) {
			ref = frames[i+1]
		}
		c.Compress(nil, frames[i], ref)
		n += streamBits(c)
	}
	return n
}

// checkSizeBound holds the format against its predecessor: whatever the data,
// a chain's streams are no longer than the 0b10 revision's region coder made
// them plus one bit per miss run a calibration blob counts and two per run a
// Markov-predicted blob counts. A count is γ(n+1) for the n misses it covers,
// each of which drops its marker and, in a calibration blob, a selector of one
// bit or two: γ(1) on a run of exactly missRun is the one bit; with the marker
// alone to drop, γ(2) and γ(4) are two bits more than one and three markers.
// The yardstick codes every miss the production coder codes, with the same
// symbol and so the same residual, so each of its regions writes the same
// length table and the same length codes: the tables cancel, and the bound
// is the miss runs' alone.
func checkSizeBound(t *testing.T, p *sparse.Pattern, opt Options, frames [][]float64) {
	t.Helper()
	got := newBits(p, opt, frames)
	legacy, runs := legacyBits(p, opt, frames)
	if slack := int(runs[0] + 2*runs[1]); got > legacy+slack {
		t.Fatalf("%d stream bits, the previous revision %d: over by %d, allowed %d", got, legacy, got-legacy, slack)
	}
}

func TestNoLargerThanPreviousRevision(t *testing.T) {
	for _, fx := range batchFixtures() {
		t.Run(fx.name, func(t *testing.T) { checkSizeBound(t, fx.p, fx.opt, fx.frames) })
	}
	// The worst case is met, not only bounded: where every run of misses that
	// keep their symbol is exactly missRun long, every count is a bit the
	// previous revision did not spend, in best-fit and in Markov blobs alike.
	rng := rand.New(rand.NewSource(17))
	p := mnaPattern(rng, 40, 60)
	frames := missRunFrames(rng, p, 3)
	for _, opt := range []Options{{DisableStamp: true, DisableLastValue: true}, {DisableStamp: true, DisableLastValue: true, Markov: true, CalibEvery: 2}} {
		legacy, runs := legacyBits(p, opt, frames)
		if over := newBits(p, opt, frames) - legacy; runs[0]+runs[1] == 0 || over != int(runs[0]+runs[1]) {
			t.Fatalf("%+v: the chain is %d bits longer than under the previous revision, over %v miss runs; want one bit a run", opt, over, runs)
		}
	}
}

// TestNoLargerThanXORResiduals holds the distance code against the residual
// code it replaced: on every fixture, coded against one frame and against
// seven, the chained blobs' streams are no longer than the same choices coded
// as XOR residuals in a shared leading-zero window, but for four bits a region
// — a region's first miss carries the length table, γ(1) + γ(L + 1), up to 14
// bits for one length L, where a fresh window's descriptor is 11, and a
// zigzagged distance is up to a bit longer than the XOR's significant bits. A
// table of more lengths is paid for by the misses it codes (DESIGN §5). The
// specials chain is left out: its NaN, ±Inf and extremes sit across the number
// line from any finite prediction, where a distance is as long as the XOR and
// keeps the trailing zeros a window strips.
func TestNoLargerThanXORResiduals(t *testing.T) {
	for _, fx := range batchFixtures() {
		if strings.HasSuffix(fx.name, "/specials") {
			continue
		}
		for _, depth := range []int{1, MaxOrder + 1} {
			t.Run(fmt.Sprintf("%s/depth%d", fx.name, depth), func(t *testing.T) {
				c := New(fx.p, fx.opt)
				got, slack := 0, 0
				for i := range fx.frames[:len(fx.frames)-1] {
					c.CompressHistory(nil, fx.frames[i], codectest.Frames(historyOf(fx.frames, i, depth)), nil)
					got += streamBits(c)
					slack += 4 * 3 * (len(c.curBounds) - 1)
				}
				if xor := xorBits(fx.p, fx.opt, fx.frames, depth); got > xor+slack {
					t.Fatalf("%d stream bits, %d with XOR residuals: over by %d, allowed %d", got, xor, got-xor, slack)
				}
			})
		}
	}
}

// TestBatchedTruncatedAgreesWithScalar pins the error path: on truncated
// blobs — a good one, whose regions open with their length tables, and the
// crafted bad tables — both decoders must report an error through the same
// surface (no panics), keeping the hardened-decoder contract of the
// conformance matrix.
func TestBatchedTruncatedAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := mnaPattern(rng, 14, 16)
	frames := runHeavyFrames(rng, p, 3)
	c := New(p, Options{})
	blobs := [][]byte{c.Compress(nil, frames[0], frames[1])}
	for _, tc := range badLengthTables(p) {
		blobs = append(blobs, tc.blob)
	}
	out := make([]float64, p.NNZ())
	for i, blob := range blobs {
		for k := 0; k < len(blob); k++ {
			berr := New(p, Options{}).Decompress(out, blob[:k], frames[1])
			serr := newReference(p, Options{}).Decompress(out, blob[:k], frames[1])
			if (berr == nil) != (serr == nil) {
				t.Fatalf("blob %d, prefix %d: batched err %v, scalar err %v", i, k, berr, serr)
			}
		}
	}
}

// TestEncodeAllocsPinnedZero pins the steady-state compress/decompress hot
// path at zero allocations per call: a MASC run pushes thousands of frames
// through one Compressor, so a per-call allocation is a regression.
func TestEncodeAllocsPinnedZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := mnaPattern(rng, 24, 30)
	frames := runHeavyFrames(rng, p, 4)
	c := New(p, Options{})
	dst := make([]byte, 0, 1<<20)
	// Warm up scratch (first calls size the chunk state and zeros buffer).
	blob := c.Compress(dst, frames[0], frames[1])
	if avg := testing.AllocsPerRun(200, func() {
		dst = c.Compress(dst[:0], frames[0], frames[1])
	}); avg != 0 {
		t.Fatalf("Compress allocates %.1f per call, want 0", avg)
	}
	out := make([]float64, p.NNZ())
	if err := c.Decompress(out, blob, frames[1]); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := c.Decompress(out, blob, frames[1]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Decompress allocates %.1f per call, want 0", avg)
	}
}
