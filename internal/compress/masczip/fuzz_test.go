package masczip

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"masc/internal/compress/codectest"
)

// FuzzDecompress feeds arbitrary bytes to the decoder, with and without
// states: it must never panic or over-allocate, only return an error or
// garbage values — the garbage, and whether it is an error, being the
// element-at-a-time oracle's too.
func FuzzDecompress(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	p := mnaPattern(rng, 24, 30)
	c := New(p, Options{})
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-5)
	f.Add(c.Compress(nil, cur, ref))
	cm := New(p, Options{Markov: true, CalibEvery: 1, Workers: 2})
	f.Add(cm.Compress(nil, cur, ref))
	// Markov blobs between calibrations: one where every value moves, which
	// carries its table, and one whose one miss does not pay for a table,
	// written in the calibration form.
	ct := New(p, Options{Markov: true})
	ct.Compress(nil, ref, cur)
	f.Add(ct.Compress(nil, cur, ref))
	fm := fewMissFrames(rand.New(rand.NewSource(3)), p, 2)
	cf := New(p, Options{Markov: true})
	cf.Compress(nil, fm[0], nil)
	f.Add(cf.Compress(nil, fm[1], fm[0]))
	// Run-heavy seeds: blobs dominated by long '1'-bit hit runs and
	// window-shared residual streaks, steering the fuzzer at the batched
	// run-counting and bulk-copy decode paths (the Markov one too few misses
	// for a table).
	rf := runHeavyFrames(rng, p, 4)
	cr := New(p, Options{})
	f.Add(cr.Compress(nil, rf[1], rf[2]))
	crm := New(p, Options{Markov: true, CalibEvery: 2})
	crm.Compress(nil, rf[0], rf[1]) // advance past calibration
	f.Add(crm.Compress(nil, rf[1], rf[2]))
	// History seeds: a waveform chain's blobs at the orders the chooser
	// picked, and one forced to the highest.
	wf := waveformFrames(rng, p, MaxOrder+3, 5)
	hist := wf[1 : MaxOrder+2]
	for _, blob := range encodeChainDepth(New(p, Options{}), wf, MaxOrder+1) {
		f.Add(blob)
	}
	top := New(p, Options{Workers: 2})
	forceOrder(top, MaxOrder)
	f.Add(top.CompressHistory(nil, wf[0], codectest.Frames(hist), nil))
	// State seeds: a branch-voltage chain's blobs (a pattern this small is
	// sampled under voltEvidence, so the chooser codes them in time) and the
	// chain's head forced into the voltage at every order.
	bv, xs := branchVoltageFrames(rng, p, MaxOrder+3)
	for _, blob := range encodeChainStates(New(p, Options{}), bv, xs, MaxOrder+1) {
		f.Add(blob)
	}
	for o := 0; o <= MaxOrder; o++ {
		vc := New(p, Options{Workers: 2})
		forceVoltage(vc, o)
		f.Add(vc.CompressHistory(nil, bv[0], codectest.Frames(bv[1:MaxOrder+2]), xs[:MaxOrder+2]))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	// Adversarial headers for the hardened parser: a chunk-boundary delta
	// past 2^31 (would wrap negative through the int32 conversion) and
	// near-maximal chunk lengths (whose sum would overflow the payload
	// offset if accumulated unchecked).
	wrapDelta := binary.AppendUvarint(header(), uint64(p.NNZ()))
	wrapDelta = binary.AppendUvarint(wrapDelta, 3)
	wrapDelta = binary.AppendUvarint(wrapDelta, 1<<33)
	wrapDelta = binary.AppendUvarint(wrapDelta, 1)
	f.Add(wrapDelta)
	hugeLens := binary.AppendUvarint(header(), uint64(p.NNZ()))
	hugeLens = binary.AppendUvarint(hugeLens, 2)
	hugeLens = binary.AppendUvarint(hugeLens, 1) // valid boundary delta
	hugeLens = binary.AppendUvarint(hugeLens, math.MaxUint64)
	hugeLens = binary.AppendUvarint(hugeLens, math.MaxUint64)
	f.Add(hugeLens)
	// Bad hit-run lengths, residual length tables and miss-run counts, order
	// fields no history satisfies, voltage blobs naming order 7 or cut short
	// and the golden corpora's blobs, which are other patterns'; then a well-formed header under an all-bits-set first byte
	// (order 7, refused) and under every flag bit set at order 0.
	for _, seed := range adversarialBlobs(f, p) {
		f.Add(seed)
	}
	for _, flags := range []byte{0xff, 1<<orderShift - 1} {
		allSet := []byte{flags}
		allSet = binary.AppendUvarint(allSet, uint64(p.NNZ()))
		allSet = binary.AppendUvarint(allSet, 1)
		f.Add(allSet)
	}
	oracle := newReference(p, Options{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		out := make([]float64, p.NNZ())
		want := make([]float64, p.NNZ())
		// Against a full history, a partial one that is the waveform's, one
		// frame (the two-argument call) and none; then the branch-voltage
		// chain's frames with their states, all of them or too few.
		for _, call := range []struct{ hist, states [][]float64 }{
			{hist, nil}, {hist[:3], nil}, {[][]float64{ref}, nil}, {nil, nil},
			{bv[1 : MaxOrder+2], xs[:MaxOrder+2]}, {bv[1:4], xs[:3]},
		} {
			err := c.DecompressHistory(out, blob, codectest.Frames(call.hist), call.states)
			serr := oracle.DecompressHistory(want, blob, codectest.Frames(call.hist), call.states)
			if (err == nil) != (serr == nil) {
				t.Fatalf("batched decoder: %v; scalar decoder: %v", err, serr)
			}
			for i := range out {
				if err == nil && math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("value %d: batched %x, scalar %x", i, math.Float64bits(out[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// FuzzRoundTrip mutates the value stream: whatever the bits, a
// compress/decompress cycle must be the identity. The first 8·nnz bytes are
// the values; a second 8·nnz, when present, are the reference (so −0, NaN and
// ±Inf reach the stamp sums from both sides), otherwise the reference is the
// values with the low byte flipped. The pattern has rows with no
// off-diagonal. Without a reference the blob must also be the value-form
// oracle's, byte for byte, and with or without one it must stay inside the
// size bound against the previous revision's coder. The same values also make
// a chain coded against a history, which must invert as well.
func FuzzRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	p := islandPattern(rng, 12, 12, 2)
	nnz := p.NNZ()
	seed := make([]byte, 8*nnz)
	rng.Read(seed)
	f.Add(seed, true)
	f.Add(seed, false)
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0, 1}
	both := make([]byte, 16*nnz)
	rng.Read(both)
	for i := 0; i < nnz; i++ {
		binary.BigEndian.PutUint64(both[8*(nnz+i):], math.Float64bits(specials[i%len(specials)]))
	}
	f.Add(both, false)
	for i := 0; i < nnz; i += 2 {
		binary.BigEndian.PutUint64(both[8*i:], math.Float64bits(specials[(i/2)%len(specials)]))
	}
	f.Add(both, true)
	f.Fuzz(func(t *testing.T, raw []byte, markov bool) {
		if len(raw) < 8*nnz {
			t.Skip()
		}
		cur := make([]float64, nnz)
		ref := make([]float64, nnz)
		for i := range cur {
			bits := binary.BigEndian.Uint64(raw[8*i:])
			cur[i] = math.Float64frombits(bits)
			ref[i] = math.Float64frombits(bits ^ 0xFF)
			if len(raw) >= 16*nnz {
				ref[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*(nnz+i):]))
			}
		}
		opt := Options{Markov: markov, CalibEvery: 2}
		roundTrip(t, New(p, opt), cur, ref)
		roundTrip(t, New(p, opt), cur, nil)
		// Whatever order the chooser makes of three frames that are two arrays.
		frames := [][]float64{cur, ref, cur, ref}
		decodeChainDepth(t, New(p, opt), encodeChainDepth(New(p, opt), frames, MaxOrder+1), frames, MaxOrder+1)
		checkNilRefIsValueForm(t, p, opt, cur)
		checkSizeBound(t, p, opt, [][]float64{cur, ref})
	})
}
