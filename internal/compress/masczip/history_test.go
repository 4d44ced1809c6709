package masczip

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"masc/internal/compress/codectest"
	"masc/internal/sparse"
)

// waveformFrames is a chain in which a tenth of the slots follow smooth
// waveforms of their own — cubics in the step with integer coefficients,
// scaled by a power of two, so every value is exact on every platform — and
// the rest stand still. At step jump the moving slots restart on new cubics,
// which is a pulse edge: nothing extrapolates across it.
func waveformFrames(rng *rand.Rand, p *sparse.Pattern, steps, jump int) [][]float64 {
	return waveformFramesEvery(rng, p, steps, jump, 10)
}

// waveformFramesEvery is waveformFrames with every stride-th slot moving.
func waveformFramesEvery(rng *rand.Rand, p *sparse.Pattern, steps, jump, stride int) [][]float64 {
	base := mnaValues(rng, p, 0.02)
	type cubic struct {
		slot int
		a    [4]int64
	}
	draw := func() []cubic {
		var cs []cubic
		for k := 0; k < len(base); k += stride {
			cs = append(cs, cubic{k, [4]int64{rng.Int63n(1 << 40), rng.Int63n(1<<30) - 1<<29, rng.Int63n(1<<20) - 1<<19, rng.Int63n(1<<10) - 1<<9}})
		}
		return cs
	}
	moving := draw()
	frames := make([][]float64, steps)
	for s := range frames {
		if s == jump {
			moving = draw()
		}
		v := append([]float64(nil), base...)
		t := int64(s)
		for _, c := range moving {
			v[c.slot] = math.Ldexp(float64(c.a[0]+t*(c.a[1]+t*(c.a[2]+t*c.a[3]))), -24)
		}
		frames[s] = v
	}
	return frames
}

// polynomialFrames is a chain in which every third slot is a polynomial of
// the given degree in the step — in the ordered-integer domain, mod 2^64,
// with random coefficients, so the values are all over the float64 range,
// NaNs included — and the rest stand still.
func polynomialFrames(rng *rand.Rand, p *sparse.Pattern, steps, degree int) [][]float64 {
	base := mnaValues(rng, p, 0.02)
	coef := make([][]uint64, len(base))
	for k := 0; k < len(base); k += 3 {
		coef[k] = make([]uint64, degree+1)
		for j := range coef[k] {
			coef[k][j] = rng.Uint64() | 1
		}
	}
	frames := make([][]float64, steps)
	for s := range frames {
		v := append([]float64(nil), base...)
		for k, c := range coef {
			if c == nil {
				continue
			}
			m := uint64(0)
			for j := degree; j >= 0; j-- {
				m = m*uint64(s) + c[j]
			}
			v[k] = math.Float64frombits(unordered(m))
		}
		frames[s] = v
	}
	return frames
}

// forceOrder makes c's pre-pass — the production one or the oracle's — report
// order o as the cheapest whatever the data; the call must come with more than
// o frames.
func forceOrder(c *Compressor, o int) {
	pre := c.preFn
	c.preFn = func(ci int) {
		pre(ci)
		h := &c.hits[ci]
		for i := range h.orderBits {
			h.orderBits[i] = 1
		}
		h.orderBits[o] = 0
	}
}

// decodeChainDepth inverts encodeChainDepth with d and checks every value.
func decodeChainDepth(t *testing.T, d *Compressor, blobs [][]byte, frames [][]float64, depth int) {
	t.Helper()
	got := make([]float64, len(frames[0]))
	for i, blob := range blobs {
		if err := d.DecompressHistory(got, blob, codectest.Frames(historyOf(frames, i, depth)), nil); err != nil {
			t.Fatalf("blob %d (flags %#02x): %v", i, blob[0], err)
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(frames[i][k]) {
				t.Fatalf("blob %d value %d: got %x want %x", i, k, math.Float64bits(got[k]), math.Float64bits(frames[i][k]))
			}
		}
	}
}

// TestOrderedIsMonotoneAndInvertible: the integer image sorts as the values
// do, −0 just below +0, and unordered takes every pattern back.
func TestOrderedIsMonotoneAndInvertible(t *testing.T) {
	asc := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()}
	for i, v := range asc {
		b := math.Float64bits(v)
		if unordered(ordered(b)) != b {
			t.Fatalf("%g: unordered(ordered(%x)) = %x", v, b, unordered(ordered(b)))
		}
		if i > 0 && ordered(math.Float64bits(asc[i-1])) >= ordered(b) {
			t.Fatalf("ordered(%g) is not below ordered(%g)", asc[i-1], v)
		}
	}
	if err := quickCheck(func(b uint64) bool { return unordered(ordered(b)) == b && ordered(unordered(b)) == b }); err != nil {
		t.Fatal(err)
	}
}

func quickCheck(f func(uint64) bool) error {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if b := rng.Uint64(); !f(b) {
			return fmt.Errorf("fails on %#x", b)
		}
	}
	return nil
}

// TestPolynomialSeriesIsNearlyFree: where the moving slots are degree-d
// polynomials of the step in the ordered-integer domain, the order-d
// extrapolation is exact. Once a blob has d+1 frames of history the chooser
// picks d — the lowest order that leaves nothing — and every miss codes as the
// one-bit exact residual; the production and the oracle encoder agree on every
// byte.
func TestPolynomialSeriesIsNearlyFree(t *testing.T) {
	for d := 0; d <= MaxOrder; d++ {
		for _, opt := range []Options{{CollectStats: true}, {CollectStats: true, Workers: 3}, {CollectStats: true, Markov: true, CalibEvery: 4}} {
			rng := rand.New(rand.NewSource(int64(50 + d)))
			p := mnaPattern(rng, 40, 60)
			frames := polynomialFrames(rng, p, 12, d)
			c, oracle := New(p, opt), newReference(p, opt)
			for i := range frames {
				hist := historyOf(frames, i, MaxOrder+1)
				c.ResetStats()
				blob := c.CompressHistory(nil, frames[i], codectest.Frames(hist), nil)
				if want := oracle.CompressHistory(nil, frames[i], codectest.Frames(hist), nil); !bytes.Equal(blob, want) {
					t.Fatalf("degree %d %+v blob %d: production and oracle encoders differ (flags %#02x, %#02x)", d, opt, i, blob[0], want[0])
				}
				if len(hist) < d+1 {
					continue
				}
				st := c.Stats()
				if got, _ := blobFamily(blob); got != d || st.OrderBlobs[d] != 1 {
					t.Fatalf("degree %d %+v blob %d: coded at order %d (OrderBlobs %v)", d, opt, i, got, st.OrderBlobs)
				}
				misses := st.SelectorElements
				hits := st.RegionHits[regionU] + st.RegionHits[regionL] + st.RegionHits[regionD]
				if d > 0 && misses == 0 {
					t.Fatalf("degree %d %+v blob %d: nothing moved", d, opt, i)
				}
				if exact := st.LZHist[8] - hits; exact != misses {
					t.Fatalf("degree %d %+v blob %d: %d of %d misses left a residual", d, opt, i, misses-exact, misses)
				}
			}
			decodeChainDepth(t, New(p, opt), encodeChainDepth(New(p, opt), frames, MaxOrder+1), frames, MaxOrder+1)
		}
	}
}

// TestHistoryRoundTripMatrix: every order, forced, over frames laced with
// NaN, ±Inf, ±0 and denormals and with reference frames that alias one another
// and the frame being coded — encoder workers 1/2/3/7, decoder workers
// 1/2/5/64, best-fit and Markov, production and oracle on both sides.
func TestHistoryRoundTripMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := mnaPattern(rng, 60, 90)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8dead0000beef), math.MaxFloat64, math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64}
	frames := waveformFrames(rng, p, MaxOrder+3, 4)
	for s, f := range frames {
		for k := s; k < len(f); k += 7 {
			f[k] = specials[(k+s)%len(specials)]
		}
	}
	cur := frames[0]
	for o := 0; o <= MaxOrder; o++ {
		hist := append([][]float64(nil), frames[1:o+2]...)
		if o >= 2 {
			hist[o] = hist[o-1] // two reference frames are one array
		}
		if o >= 4 {
			hist[2] = cur // and one is the frame being coded
		}
		for _, markov := range []bool{false, true} {
			for _, ew := range []int{1, 2, 3, 7} {
				opt := Options{Markov: markov, CalibEvery: 2, Workers: ew}
				enc, oracle := New(p, opt), newReference(p, opt)
				forceOrder(enc, o)
				forceOrder(oracle, o)
				var blob []byte
				for rep := 0; rep < 2; rep++ { // the second blob of a Markov encoder is table-driven
					blob = enc.CompressHistory(nil, cur, codectest.Frames(hist), nil)
					if !bytes.Equal(blob, oracle.CompressHistory(nil, cur, codectest.Frames(hist), nil)) {
						t.Fatalf("order %d markov=%v workers=%d rep %d: production and oracle encoders differ", o, markov, ew, rep)
					}
				}
				if got, _ := blobFamily(blob); got != o {
					t.Fatalf("order %d forced, flags byte %#02x says %d", o, blob[0], got)
				}
				for _, dw := range []int{1, 2, 5, 64} {
					for name, dec := range map[string]*Compressor{"batched": New(p, Options{Workers: dw}), "scalar": newReference(p, Options{Workers: dw})} {
						got := make([]float64, p.NNZ())
						// More frames than the order reads are ignored.
						if err := dec.DecompressHistory(got, blob, codectest.Frames(append(hist[:len(hist):len(hist)], frames[MaxOrder+2])), nil); err != nil {
							t.Fatalf("order %d markov=%v enc workers=%d, %s dec workers=%d: %v", o, markov, ew, name, dw, err)
						}
						for k := range got {
							if math.Float64bits(got[k]) != math.Float64bits(cur[k]) {
								t.Fatalf("order %d markov=%v enc workers=%d, %s dec workers=%d: value %d: got %x want %x",
									o, markov, ew, name, dw, k, math.Float64bits(got[k]), math.Float64bits(cur[k]))
							}
						}
					}
				}
			}
		}
	}
}

// historySlack is what TestHistoryNeverCostsMuch allows a blob coded against
// a history over the same blob coded against its nearest frame: the chooser
// prices an order on a sample of the moving elements, so it can be wrong, but order 0 is
// always on its menu.
const historySlack = 16

// TestHistoryNeverCostsMuch: over the wire-identity fixtures — none of which
// is a waveform — coding a chain against seven frames takes no more than
// coding it against one plus historySlack bytes a blob, and round-trips
// through both decoders; on a waveform it takes less than two thirds.
func TestHistoryNeverCostsMuch(t *testing.T) {
	total := func(blobs [][]byte) (n int) {
		for _, b := range blobs {
			n += len(b)
		}
		return n
	}
	for _, fx := range batchFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			one := total(encodeChain(New(fx.p, fx.opt), fx.frames))
			blobs := encodeChainDepth(New(fx.p, fx.opt), fx.frames, MaxOrder+1)
			if seven := total(blobs); seven > one+historySlack*len(blobs) {
				t.Fatalf("%d bytes against seven frames, %d against one: over by %d, allowed %d a blob",
					seven, one, seven-one, historySlack)
			}
			decodeChainDepth(t, New(fx.p, fx.opt), blobs, fx.frames, MaxOrder+1)
			decodeChainDepth(t, newReference(fx.p, fx.opt), blobs, fx.frames, MaxOrder+1)
		})
	}
	rng := rand.New(rand.NewSource(62))
	p := mnaPattern(rng, 60, 90)
	frames := waveformFrames(rng, p, 40, 20)
	one := total(encodeChain(New(p, Options{}), frames))
	if seven := total(encodeChainDepth(New(p, Options{}), frames, MaxOrder+1)); 3*seven > 2*one {
		t.Fatalf("a waveform chain takes %d bytes against seven frames, %d against one", seven, one)
	}
}

// TestOrderRestartsAtAnEdge: across a jump in the waveforms the chooser falls
// back to a low order for as long as the history straddles it, and climbs again
// as frames past the edge accumulate.
func TestOrderRestartsAtAnEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := mnaPattern(rng, 60, 90)
	const jump = 12
	frames := waveformFrames(rng, p, 24, jump)
	blobs := encodeChainDepth(New(p, Options{}), frames, MaxOrder+1)
	orders := make([]int, len(blobs))
	for i, b := range blobs {
		orders[i], _ = blobFamily(b)
	}
	// Frame jump−1 is coded against frames jump…, all on the far side of the edge.
	if orders[jump-1] != 0 {
		t.Fatalf("orders %v: the blob just below the edge extrapolates at order %d", orders, orders[jump-1])
	}
	for _, i := range []int{0, jump} {
		if orders[i] < 3 {
			t.Fatalf("orders %v: blob %d, seven frames clear of the edge, extrapolates at order %d", orders, i, orders[i])
		}
	}
}

// orderBlobs are nil-reference blobs over p with each nonzero order written
// into the flags byte: no history can satisfy them. (7, past MaxOrder, is
// among badVoltageBlobs.)
func orderBlobs(p *sparse.Pattern) [][]byte {
	rng := rand.New(rand.NewSource(64))
	good := New(p, Options{}).Compress(nil, mnaValues(rng, p, 0.01), nil)
	var out [][]byte
	for o := 1; o <= MaxOrder; o++ {
		out = append(out, append([]byte{good[0] | byte(o)<<orderShift}, good[1:]...))
	}
	return out
}

// orderNeedsItsHistory is TestHeaderHardening's part on the order field: a blob
// that asks for more frames than the call brings — a chain decoded past a
// missing frame, or corruption the CRC did not see — is an ErrReference naming
// the order and the frames given, from both decoders, whatever else is in the
// blob.
func orderNeedsItsHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	p := mnaPattern(rng, 30, 40)
	frames := waveformFrames(rng, p, MaxOrder+2, -1)
	got := make([]float64, p.NNZ())
	decoders := map[string]*Compressor{"batched": New(p, Options{}), "scalar": newReference(p, Options{})}
	for o := 1; o <= MaxOrder; o++ {
		enc := New(p, Options{})
		forceOrder(enc, o)
		blob := enc.CompressHistory(nil, frames[0], codectest.Frames(frames[1:o+2]), nil)
		for name, d := range decoders {
			if err := d.DecompressHistory(got, blob, codectest.Frames(frames[1:o+2]), nil); err != nil {
				t.Fatalf("order %d, %s decoder, full history: %v", o, name, err)
			}
			for given := 0; given <= o; given++ {
				err := d.DecompressHistory(got, blob, codectest.Frames(frames[1:1+given]), nil)
				want := fmt.Sprintf("order-%d blob reads %d reference frames, %d given", o, o+1, given)
				if !errors.Is(err, ErrReference) || !strings.Contains(err.Error(), want) {
					t.Errorf("order %d, %s decoder, %d frames: %v, want an error saying %q", o, name, given, err, want)
				}
			}
		}
	}
	for i, blob := range orderBlobs(p) {
		for name, d := range decoders {
			for _, hist := range [][][]float64{nil, frames[1:2]} {
				err := d.DecompressHistory(got, blob, codectest.Frames(hist), nil)
				if want := fmt.Sprintf("flags byte %#02x", blob[0]); !errors.Is(err, ErrReference) || !strings.Contains(err.Error(), want) ||
					!strings.Contains(err.Error(), fmt.Sprintf("order-%d", i+1)) {
					t.Errorf("order bits %d on a nil-reference blob, %s decoder, %d frames: %v", i+1, name, len(hist), err)
				}
			}
		}
	}
}

// TestHistoryAllocsPinnedZero: the history path allocates nothing per call
// either, the two-argument wrappers included.
func TestHistoryAllocsPinnedZero(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	p := mnaPattern(rng, 24, 30)
	frames := waveformFrames(rng, p, MaxOrder+2, -1)
	c := New(p, Options{})
	dst := make([]byte, 0, 1<<20)
	blob := c.CompressHistory(dst, frames[0], codectest.Frames(frames[1:]), nil)
	if order, _ := blobFamily(blob); order == 0 {
		t.Fatalf("flags byte %#02x: the waveform chain was coded at order 0", blob[0])
	}
	out := make([]float64, p.NNZ())
	hist := codectest.Frames(frames[1:])
	if avg := testing.AllocsPerRun(100, func() {
		dst = c.CompressHistory(dst[:0], frames[0], hist, nil)
		if err := c.DecompressHistory(out, dst, hist, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("a history round trip allocates %.1f per call, want 0", avg)
	}
}

// BenchmarkHistory times a blob of a waveform chain — two fifths of the slots
// moving, as in a MOSFET circuit's C — against seven frames and against one.
func BenchmarkHistory(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	p := mnaPattern(rng, 1500, 2500)
	frames := waveformFramesEvery(rng, p, MaxOrder+2, -1, 2)
	for _, depth := range []int{1, MaxOrder + 1} {
		hist := codectest.Frames(frames[1 : 1+depth])
		c := New(p, Options{})
		blob := c.CompressHistory(nil, frames[0], hist, nil)
		out := make([]float64, p.NNZ())
		b.Run(fmt.Sprintf("compress/depth%d", depth), func(b *testing.B) {
			b.SetBytes(int64(8 * p.NNZ()))
			dst := make([]byte, 0, len(blob))
			for i := 0; i < b.N; i++ {
				dst = c.CompressHistory(dst[:0], frames[0], hist, nil)
			}
			b.ReportMetric(float64(len(blob)), "blob-B")
		})
		b.Run(fmt.Sprintf("decompress/depth%d", depth), func(b *testing.B) {
			b.SetBytes(int64(8 * p.NNZ()))
			for i := 0; i < b.N; i++ {
				if err := c.DecompressHistory(out, blob, hist, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
