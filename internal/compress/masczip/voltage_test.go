package masczip

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"masc/internal/compress/codectest"
	"masc/internal/sparse"
)

// branchVoltageFrames is a chain of capacitance matrices over p driven by a
// random walk of the node voltages: each off-diagonal pair stamps −f(u) for its
// own quadratic f of u = x_row − x_col, each node adds a quadratic of its own
// voltage to ground on the diagonal. No slot is smooth in the step, every slot
// is smooth in its voltage. states[s] is the walk at step s.
func branchVoltageFrames(rng *rand.Rand, p *sparse.Pattern, steps int) (frames, states [][]float64) {
	n := int32(p.N)
	quad := func() [3]float64 { return [3]float64{1 + rng.Float64(), rng.Float64() - 0.5, 0.5 * rng.Float64()} }
	f := make(map[[2]int32][3]float64)
	g := make([][3]float64, n)
	for i := range g {
		g[i] = quad()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	poly := func(c [3]float64, u float64) float64 { return c[0] + u*(c[1]+u*c[2]) }
	for s := 0; s < steps; s++ {
		if s > 0 {
			next := make([]float64, n)
			for i := range next {
				next[i] = x[i] + 0.5*rng.NormFloat64()
			}
			x = next
		}
		v := make([]float64, p.NNZ())
		for r := int32(0); r < n; r++ {
			var d int32 = -1
			sum := 0.0
			for k := p.RowPtr[r]; k < p.RowPtr[r+1]; k++ {
				c := p.ColIdx[k]
				if c == r {
					d = k
					continue
				}
				key := [2]int32{min(r, c), max(r, c)}
				if _, ok := f[key]; !ok {
					f[key] = quad()
				}
				v[k] = -poly(f[key], x[key[0]]-x[key[1]])
				sum += v[k]
			}
			if d >= 0 {
				v[d] = poly(g[r], x[r]) - sum
			}
		}
		frames, states = append(frames, v), append(states, x)
	}
	return frames, states
}

// statesOf is the states the store hands the codec with historyOf's frames:
// the coded step's, then each frame's — none without states.
func statesOf(states [][]float64, i, depth int) [][]float64 {
	if states == nil {
		return nil
	}
	return states[i:min(i+1+depth, len(states))]
}

// encodeChainStates encodes a chain against depth frames and their states.
func encodeChainStates(c *Compressor, frames, states [][]float64, depth int) [][]byte {
	var blobs [][]byte
	for i := range frames {
		blobs = append(blobs, c.CompressHistory(nil, frames[i], codectest.Frames(historyOf(frames, i, depth)), statesOf(states, i, depth)))
	}
	return blobs
}

// decodeChainStates inverts encodeChainStates with d and checks every value.
func decodeChainStates(t *testing.T, d *Compressor, blobs [][]byte, frames, states [][]float64, depth int) {
	t.Helper()
	got := make([]float64, len(frames[0]))
	for i, blob := range blobs {
		if err := d.DecompressHistory(got, blob, codectest.Frames(historyOf(frames, i, depth)), statesOf(states, i, depth)); err != nil {
			t.Fatalf("blob %d (flags %#02x): %v", i, blob[0], err)
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(frames[i][k]) {
				t.Fatalf("blob %d value %d: got %x want %x", i, k, math.Float64bits(got[k]), math.Float64bits(frames[i][k]))
			}
		}
	}
}

// blobFamily reads a blob's symbol-0 family and order from its flags byte.
func blobFamily(blob []byte) (order int, volt bool) {
	return int(blob[0] >> orderShift), blob[0]&flagVolt != 0
}

// TestBranchVoltageCapacitanceIsNearlyFree: where every slot is a function of
// its branch voltage and the voltages random-walk, extrapolating in time fails
// and interpolating in the voltage does not. With states the chooser picks the
// voltage family on every blob with three frames or more, a miss of region U
// costs what the residual window's framing costs where in time it cost most of
// its 64 bits, production and oracle agree on every byte, and both decoders
// invert the chain.
func TestBranchVoltageCapacitanceIsNearlyFree(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	p := mnaPattern(rng, 200, 300) // large enough for the pre-pass to price the voltage (voltEvidence)
	frames, states := branchVoltageFrames(rng, p, 20)
	perMiss := func(st Stats) float64 { return float64(st.RegionBits[regionU]) / float64(st.RegionMisses[regionU]) }
	for _, opt := range []Options{{CollectStats: true}, {CollectStats: true, Workers: 3}, {CollectStats: true, Markov: true, CalibEvery: 4}} {
		timeOnly, volt := New(p, opt), New(p, opt)
		oracle := newReference(p, opt)
		var blobs [][]byte
		for i := range frames {
			hist, xs := historyOf(frames, i, MaxOrder+1), statesOf(states, i, MaxOrder+1)
			timeOnly.CompressHistory(nil, frames[i], codectest.Frames(hist), nil)
			blob := volt.CompressHistory(nil, frames[i], codectest.Frames(hist), xs)
			if want := oracle.CompressHistory(nil, frames[i], codectest.Frames(hist), xs); !bytes.Equal(blob, want) {
				t.Fatalf("%+v blob %d: production and oracle encoders differ (flags %#02x, %#02x)", opt, i, blob[0], want[0])
			}
			if o, v := blobFamily(blob); len(hist) >= 3 && (!v || o < 2) {
				t.Fatalf("%+v blob %d, %d frames: coded at order %d, voltage family %v", opt, i, len(hist), o, v)
			}
			blobs = append(blobs, blob)
		}
		ts, vs := timeOnly.Stats(), volt.Stats()
		var voltBlobs int64
		for _, n := range vs.VoltBlobs {
			voltBlobs += n
		}
		t.Logf("%+v: region U %.1f bits a miss in time, %.1f in the voltage; VoltBlobs %v", opt, perMiss(ts), perMiss(vs), vs.VoltBlobs)
		if perMiss(ts) < 48 || perMiss(vs) > 24 || voltBlobs < int64(len(frames)-3) {
			t.Fatalf("%+v: region U %.1f bits a miss in time, %.1f in the voltage, %d voltage blobs", opt, perMiss(ts), perMiss(vs), voltBlobs)
		}
		decodeChainStates(t, New(p, opt), blobs, frames, states, MaxOrder+1)
		decodeChainStates(t, newReference(p, opt), blobs, frames, states, MaxOrder+1)
	}
}

// TestPredictionIsUnfused: the production interpolation (divide, change,
// moved) is bit for bit the reference transcription, in which every operation
// is rounded by an explicit conversion — over random abscissae with
// coincidences, ordinates with specials, and every order.
func TestPredictionIsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	draw := func() float64 {
		switch rng.Intn(20) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		default:
			return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	for n := 0; n < 100000; n++ {
		o := n % (MaxOrder + 1)
		var u, y nodes
		for i := 0; i <= o; i++ {
			u[i], y[i] = draw(), draw()
			if i > 0 && rng.Intn(8) == 0 {
				u[i] = u[rng.Intn(i)] // two frames at one voltage
			}
		}
		at, base := draw(), y[0]
		want := moveRef(base, interpolateRef(u[:o+1], y[:o+1], at))
		divide(o, &u, &y)
		if got := moved(base, change(o, &u, &y, at)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("input %d, order %d: production %x, transcription %x", n, o, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// voltageBlob is a voltage-family blob of the branch-voltage chain over p, at
// order 3, with the frames and states it was coded against.
func voltageBlob(t testing.TB, p *sparse.Pattern) (blob []byte, hist, states [][]float64) {
	rng := rand.New(rand.NewSource(72))
	frames, xs := branchVoltageFrames(rng, p, MaxOrder+2)
	hist, states = frames[1:], xs
	enc := New(p, Options{})
	forceVoltage(enc, 3) // a small pattern's sample is under voltEvidence
	blob = enc.CompressHistory(nil, frames[0], codectest.Frames(hist), states)
	if _, volt := blobFamily(blob); !volt {
		t.Fatalf("flags %#02x: the branch-voltage chain was not coded in the voltage", blob[0])
	}
	return blob, hist, states
}

// badVoltageBlobs are the voltage family's adversarial blobs over p: a good
// one naming order 7, and one cut off after its flags byte.
func badVoltageBlobs(t testing.TB, p *sparse.Pattern) [][]byte {
	good, _, _ := voltageBlob(t, p)
	return [][]byte{append([]byte{good[0] | 7<<orderShift}, good[1:]...), good[:1]}
}

// voltageNeedsItsStates is TestHeaderHardening's part on the voltage flag:
// a voltage-family blob decoded without states, with states of the wrong
// dimension or too few of them, or against fewer frames than its order reads,
// is an ErrReference; order 7 is an ErrFormat and a blob cut off after its
// flags byte an error — from both decoders, and never a panic.
func voltageNeedsItsStates(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := mnaPattern(rng, 30, 40)
	blob, hist, states := voltageBlob(t, p)
	order, _ := blobFamily(blob)
	short := make([][]float64, len(states))
	for i := range short {
		short[i] = states[i][:p.N-1]
	}
	got := make([]float64, p.NNZ())
	for name, d := range map[string]*Compressor{"batched": New(p, Options{}), "scalar": newReference(p, Options{})} {
		if err := d.DecompressHistory(got, blob, codectest.Frames(hist), states); err != nil {
			t.Fatalf("%s decoder, full history and states: %v", name, err)
		}
		for _, tc := range []struct {
			name         string
			hist, states [][]float64
		}{
			{"no states", hist, nil},
			{"states of the wrong dimension", hist, short},
			{"too few states", hist, states[:order+1]},
			{"too few frames", hist[:order], states},
		} {
			if err := d.DecompressHistory(got, blob, codectest.Frames(tc.hist), tc.states); !errors.Is(err, ErrReference) {
				t.Errorf("%s decoder, %s: %v, want an ErrReference", name, tc.name, err)
			}
		}
		bad := badVoltageBlobs(t, p)
		err := d.DecompressHistory(got, bad[0], codectest.Frames(hist), states)
		if !errors.Is(err, ErrFormat) || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("flags byte %#02x", bad[0][0]))) {
			t.Errorf("%s decoder, order 7: %v, want an ErrFormat naming the flags byte", name, err)
		}
		if err := d.DecompressHistory(got, bad[1], codectest.Frames(hist), states); err == nil {
			t.Errorf("%s decoder: a blob of its flags byte alone decoded", name)
		}
	}
}

// TestStatesRoundTripMatrix: the branch-voltage chain with states, at every
// voltage order forced, encoder workers 1/2/3/7 against decoder workers
// 1/2/5/64, best-fit and Markov, production and oracle on both sides — and
// frames and states that alias one another.
func TestStatesRoundTripMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	p := mnaPattern(rng, 60, 90)
	frames, states := branchVoltageFrames(rng, p, MaxOrder+3)
	cur := frames[0]
	for o := 0; o <= MaxOrder; o++ {
		hist, xs := append([][]float64(nil), frames[1:o+2]...), append([][]float64(nil), states[:o+2]...)
		if o >= 3 {
			hist[o], xs[o+1] = hist[o-1], xs[o] // two frames, and their states, are one array: a zero divisor
		}
		for _, markov := range []bool{false, true} {
			for _, ew := range []int{1, 2, 3, 7} {
				opt := Options{Markov: markov, CalibEvery: 2, Workers: ew}
				enc, oracle := New(p, opt), newReference(p, opt)
				forceVoltage(enc, o)
				forceVoltage(oracle, o)
				var blob []byte
				for rep := 0; rep < 2; rep++ {
					blob = enc.CompressHistory(nil, cur, codectest.Frames(hist), xs)
					if !bytes.Equal(blob, oracle.CompressHistory(nil, cur, codectest.Frames(hist), xs)) {
						t.Fatalf("order %d markov=%v workers=%d rep %d: production and oracle encoders differ", o, markov, ew, rep)
					}
				}
				if got, volt := blobFamily(blob); got != o || !volt {
					t.Fatalf("voltage order %d forced, header says %d (voltage %v)", o, got, volt)
				}
				for _, dw := range []int{1, 2, 5, 64} {
					for name, dec := range map[string]*Compressor{"batched": New(p, Options{Workers: dw}), "scalar": newReference(p, Options{Workers: dw})} {
						got := make([]float64, p.NNZ())
						if err := dec.DecompressHistory(got, blob, codectest.Frames(hist), append(xs[:len(xs):len(xs)], states[MaxOrder+2])); err != nil {
							t.Fatalf("order %d markov=%v enc workers=%d, %s dec workers=%d: %v", o, markov, ew, name, dw, err)
						}
						for k := range got {
							if math.Float64bits(got[k]) != math.Float64bits(cur[k]) {
								t.Fatalf("order %d markov=%v enc workers=%d, %s dec workers=%d: value %d differs", o, markov, ew, name, dw, k)
							}
						}
					}
				}
			}
		}
	}
}

// forceVoltage makes c's pre-pass report the voltage family at order o as the
// cheapest whatever the data; the call must bring more than o frames and
// their states.
func forceVoltage(c *Compressor, o int) {
	pre := c.preFn
	c.preFn = func(ci int) {
		pre(ci)
		h := &c.hits[ci]
		for i := range h.orderBits {
			h.orderBits[i], h.voltBits[i] = 1, 1
		}
		h.voltBits[o], h.sampled = 0, voltEvidence
	}
}

// TestNoStatesIsPreviousFormat: a chain coded without states is never coded
// in the voltage family, whatever its frames; with states a chain the time
// family codes best is byte-identical to the same chain without them.
func TestNoStatesIsPreviousFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	p := mnaPattern(rng, 40, 60)
	frames, states := branchVoltageFrames(rng, p, 12)
	for _, blob := range encodeChainDepth(New(p, Options{}), frames, MaxOrder+1) {
		if _, volt := blobFamily(blob); volt {
			t.Fatalf("flags byte %#02x: a chain coded without states is coded in the voltage", blob[0])
		}
	}
	// A cubic series in the step is exact in time once four frames are above
	// it: states change nothing there.
	poly := polynomialFrames(rng, p, 12, 3)
	with := encodeChainStates(New(p, Options{}), poly, states, MaxOrder+1)
	for i, blob := range encodeChainDepth(New(p, Options{}), poly, MaxOrder+1) {
		if len(historyOf(poly, i, MaxOrder+1)) < 4 {
			break
		}
		if !bytes.Equal(blob, with[i]) {
			t.Fatalf("blob %d: a chain exact in time differs with states (flags %#02x, %#02x)", i, blob[0], with[i][0])
		}
	}
}

// BenchmarkVoltage times a blob of the branch-voltage chain — every slot
// moving — against seven frames with and without states.
func BenchmarkVoltage(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	p := mnaPattern(rng, 1500, 2500)
	frames, states := branchVoltageFrames(rng, p, MaxOrder+2)
	for _, xs := range [][][]float64{nil, states} {
		hist := codectest.Frames(frames[1:])
		c := New(p, Options{})
		blob := c.CompressHistory(nil, frames[0], hist, xs)
		out := make([]float64, p.NNZ())
		name := fmt.Sprintf("states=%v", xs != nil)
		b.Run("compress/"+name, func(b *testing.B) {
			b.SetBytes(int64(8 * p.NNZ()))
			dst := make([]byte, 0, len(blob))
			for i := 0; i < b.N; i++ {
				dst = c.CompressHistory(dst[:0], frames[0], hist, xs)
			}
			b.ReportMetric(float64(len(blob)), "blob-B")
		})
		b.Run("decompress/"+name, func(b *testing.B) {
			b.SetBytes(int64(8 * p.NNZ()))
			for i := 0; i < b.N; i++ {
				if err := c.DecompressHistory(out, blob, hist, xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
