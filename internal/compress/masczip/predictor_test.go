package masczip

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"masc/internal/sparse"
)

// The wire-identity tests run encoder, decoder and the scalar oracle through
// the one candsD, so they cannot see a wrong formula. These tests hold
// region D's stamp candidate against arithmetic written out here and against
// the value form it replaced (stampValueForm in reference_test.go).

// pairStampFrames builds a capacitance tensor the way MNA stamping does: one
// floating capacitance per off-diagonal pair, every one of which moves at
// every step, stamped +c on both diagonals and −c on both off-diagonals in
// pair order, on top of a grounded capacitance per node that never moves
// (zero when grounded is false).
func pairStampFrames(rng *rand.Rand, p *sparse.Pattern, steps int, grounded bool) [][]float64 {
	type pair struct{ ij, ji, ii, jj int32 }
	tr, diag := p.TransposeSlots(), p.DiagSlots()
	var pairs []pair
	for i := int32(0); i < int32(p.N); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			if j := p.ColIdx[k]; j > i {
				pairs = append(pairs, pair{k, tr[k], diag[i], diag[j]})
			}
		}
	}
	c := make([]float64, len(pairs))
	for e := range c {
		c[e] = 1e-15 * (1 + 9*rng.Float64())
	}
	gnd := make([]float64, p.N)
	if grounded {
		for i := range gnd {
			gnd[i] = 1e-15 * (1 + 9*rng.Float64())
		}
	}
	frames := make([][]float64, steps)
	for t := range frames {
		v := make([]float64, p.NNZ())
		for i, g := range gnd {
			v[diag[i]] = g
		}
		for e, pr := range pairs {
			c[e] *= 1 + 1e-3*rng.NormFloat64()
			v[pr.ii] += c[e]
			v[pr.jj] += c[e]
			v[pr.ij] -= c[e]
			v[pr.ji] -= c[e]
		}
		frames[t] = v
	}
	return frames
}

// chainBytes codes frames as a store chain and returns the total size and the
// encoder statistics.
func chainBytes(c *Compressor, frames [][]float64) (int, Stats) {
	total := 0
	for _, b := range encodeChain(c, frames) {
		total += len(b)
	}
	return total, c.Stats()
}

func TestStampPredictsDiagonalFromRowChange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := mnaPattern(rng, 60, 90)
	frames := pairStampFrames(rng, p, 12, true)

	// Candidate against arithmetic, and how often it is the value itself.
	var changed, exact int
	var cands [4]float64
	pl := newPlan(p)
	for i := 0; i+1 < len(frames); i++ {
		cur, ref := frames[i], frames[i+1]
		cc := chunkCoder{plan: pl, opt: &Options{}, cur: cur, ref: ref}
		for k, d := range pl.dSlots {
			if math.Float64bits(cur[d]) == math.Float64bits(ref[d]) {
				continue
			}
			changed++
			row := pl.dRows[k]
			var sumCur, sumRef float64
			for s := p.RowPtr[row]; s < p.RowPtr[row+1]; s++ {
				if s != d {
					sumCur += cur[s]
					sumRef += ref[s]
				}
			}
			want := ref[d] - (sumCur - sumRef)
			if n := cc.candsD(int32(k), &cands); n != dSyms || cands[0] != ref[d] || cands[1] != want {
				t.Fatalf("step %d row %d: candidates %v (n=%d), want [%g %g]", i, row, cands[:n], n, ref[d], want)
			}
			if math.Float64bits(cur[d]) == math.Float64bits(want) {
				exact++
			}
		}
	}
	if coded := (len(frames) - 1) * p.N; changed*10 < coded*9 {
		t.Fatalf("fixture: only %d of %d diagonals changed", changed, coded)
	}
	// Unconstrained random mantissas leave the two roundings of the difference
	// form exact on 49–63 % of this generator's diagonals (seeds 30–39); the
	// device values of MOS_T7 make it 74 %.
	if exact*100 < changed*45 {
		t.Fatalf("stamp candidate exact on %d of %d changed diagonals, want ≥ 45%%", exact, changed)
	}

	// The coder takes them as hits: every chained blob picks the stamp as
	// region D's hit predictor, and what the arithmetic above found exact is
	// what it did not have to code.
	diffBytes, st := chainBytes(New(p, Options{CollectStats: true}), frames)
	if want := int64(len(frames) - 1); st.StampBlobs < want {
		t.Fatalf("%d of %d chained blobs chose the stamp hit predictor", st.StampBlobs, want)
	}
	if st.RegionHits[regionD] < int64(exact) {
		t.Fatalf("region D coded %d hits, the stamp is exact on %d changed diagonals", st.RegionHits[regionD], exact)
	}
	if perDiag := float64(st.RegionBits[regionD]) / float64(changed); perDiag > 14 {
		t.Errorf("region D costs %.1f bits per changed diagonal, want ≤ 14 (it was ≤ 16 with every one a miss)", perDiag)
	}
	// Less than under the value form, which a grounded row defeats.
	valueBytes, valueStats := chainBytes(newReferenceWith(p, Options{CollectStats: true}, stampValueForm), frames)
	if diffBytes >= valueBytes {
		t.Errorf("difference form %d B, value form %d B: want strictly smaller", diffBytes, valueBytes)
	}
	t.Logf("changed %d exact %d; D hits %d / value form %d; %d vs %d B", changed, exact,
		st.RegionHits[regionD], valueStats.RegionHits[regionD], diffBytes, valueBytes)

	// With nothing grounded the value identity holds too; the difference form
	// pays two roundings for one and must stay within 1 %.
	floating := pairStampFrames(rng, p, 12, false)
	diffBytes, _ = chainBytes(New(p, Options{}), floating)
	valueBytes, _ = chainBytes(newReferenceWith(p, Options{}, stampValueForm), floating)
	if d := math.Abs(float64(diffBytes-valueBytes)) / float64(valueBytes); d > 0.01 {
		t.Errorf("ungrounded tensor: difference form %d B, value form %d B (%.2f %% apart, want ≤ 1 %%)",
			diffBytes, valueBytes, 100*d)
	}
}

// islandPattern is mnaPattern plus nodes that carry only a diagonal: rows
// with no off-diagonal, where the stamp sums are empty.
func islandPattern(rng *rand.Rand, n, extraStamps, islands int) *sparse.Pattern {
	base := mnaPattern(rng, n, extraStamps)
	b := sparse.NewBuilder(n + islands)
	for i := int32(0); i < int32(n); i++ {
		for k := base.RowPtr[i]; k < base.RowPtr[i+1]; k++ {
			b.Add(i, base.ColIdx[k])
		}
	}
	for i := n; i < n+islands; i++ {
		b.Add(int32(i), int32(i))
	}
	return b.Build()
}

// checkNilRefIsValueForm: with no reference the difference form reduces to
// the value form, so the production blob must be the value-form oracle's in
// every byte, whatever the values (the sign of a zero row sum included).
func checkNilRefIsValueForm(t *testing.T, p *sparse.Pattern, opt Options, cur []float64) {
	t.Helper()
	got := New(p, opt).Compress(nil, cur, nil)
	want := newReferenceWith(p, opt, stampValueForm).Compress(nil, cur, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("nil-reference blob differs from the value-form oracle's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestStructureCostsNoBits: what the predictor already knows is not coded. An
// exactly symmetric tensor whose every off-diagonal moves at every step pays at
// least four bits per lower-triangle entry with the temporal hit predictor, and
// next to none with the mate; a linear circuit's chain,
// every frame the last one again, a bit per slot.
func TestStructureCostsNoBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := mnaPattern(rng, 60, 90)

	frames := pairStampFrames(rng, p, 8, true)
	c := New(p, Options{CollectStats: true})
	for i := 0; i+1 < len(frames); i++ {
		c.ResetStats()
		roundTrip(t, c, frames[i], frames[i+1])
		st := c.Stats()
		if st.MateBlobs != 1 || st.RegionMisses[regionL] != 0 || st.RegionBits[regionL] > 64 {
			t.Fatalf("blob %d: region L of a symmetric tensor took %d bits, %d misses (mate blobs %d), want ≤ 64 bits and none",
				i, st.RegionBits[regionL], st.RegionMisses[regionL], st.MateBlobs)
		}
		temporal := New(p, Options{DisableStamp: true, CollectStats: true})
		temporal.Compress(nil, frames[i], frames[i+1])
		if was := int64(4 * len(c.plan.lSlots)); temporal.Stats().RegionBits[regionL] < was {
			t.Fatalf("fixture: with the temporal hit predictor region L took under %d bits", was)
		}
	}

	static := mnaValues(rng, p, 0.01)
	header := len(binary.AppendUvarint([]byte{0, 1}, uint64(p.NNZ()))) + 1 // flags, chunk count, element count, chunk length
	for _, opt := range []Options{{}, {Markov: true}, {DisableStamp: true}} {
		c := New(p, opt)
		c.Compress(nil, static, nil)
		for i := 0; i < 3; i++ {
			blob := roundTrip(t, c, static, static)
			if extra := 12; len(blob) > header+extra+markovBytes(blob) {
				t.Fatalf("%+v: a repeated frame took %d bytes, want ≤ %d + %d", opt, len(blob), header+markovBytes(blob), extra)
			}
		}
	}
}

// markovBytes is the size of the policy table a non-calibration blob carries.
func markovBytes(blob []byte) int {
	if blob[0]&flagCalib == 0 {
		return 3
	}
	return 0
}

// forceMate makes c's pre-pass report the mate as region L's better hit
// predictor whatever the data.
func forceMate(c *Compressor) {
	c.preFn = func(ci int) {
		ec, _ := c.chunkEncoder(ci)
		h := ec.countHits()
		h.lMate = h.lTemporal + 1
		c.hits[ci] = h
	}
}

// TestNonSymmetricKeepsLowerTemporal: a MOSFET stamps (D,S) ≠ (S,D), so on a
// conductance tensor that moves in a few places per step the mate is rarely
// the value and the temporal prediction almost always is. The encoder must see
// that per blob — flag off, and the blob no larger than with it forced on.
func TestNonSymmetricKeepsLowerTemporal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := mnaPattern(rng, 60, 90)
	frames := runHeavyFrames(rng, p, 9) // mnaValues with noise: no transpose pair is equal
	for _, opt := range []Options{{}, {Workers: 3}} {
		free, forced := New(p, opt), New(p, opt)
		forceMate(forced)
		for i := 0; i+1 < len(frames); i++ {
			a := roundTrip(t, free, frames[i], frames[i+1])
			b := roundTrip(t, forced, frames[i], frames[i+1])
			if a[0]&flagMateHit != 0 || b[0]&flagMateHit == 0 {
				t.Fatalf("blob %d: flags %#02x free, %#02x forced", i, a[0], b[0])
			}
			if len(a) > len(b) {
				t.Fatalf("blob %d: %d bytes with region L temporal, %d with the mate forced on", i, len(a), len(b))
			}
		}
	}
}

// TestOutOfChunkMates: in a multi-chunk blob a lower-triangle entry whose mate
// sits in an earlier chunk cannot use it (chunks decode in parallel) and falls
// back to the temporal prediction, on both sides and at every decoder worker
// count.
func TestOutOfChunkMates(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := mnaPattern(rng, 80, 160)
	frames := pairStampFrames(rng, p, 4, true)
	for _, workers := range []int{2, 3, 7} {
		enc := New(p, Options{Workers: workers, CollectStats: true})
		blob := enc.Compress(nil, frames[0], frames[1])
		if blob[0]&flagMateHit == 0 {
			t.Fatalf("workers=%d: mate flag off on a symmetric tensor (flags %#02x)", workers, blob[0])
		}
		// Some mates are out of reach, so region L is no longer free.
		if st := enc.Stats(); st.RegionMisses[regionL] == 0 || st.RegionHits[regionL] == 0 {
			t.Fatalf("workers=%d: region L %d hits, %d misses: want both", workers, st.RegionHits[regionL], st.RegionMisses[regionL])
		}
		for _, w := range []int{1, 2, 5, 64} {
			for name, dec := range map[string]*Compressor{"batched": New(p, Options{Workers: w}), "scalar": newReference(p, Options{Workers: w})} {
				got := make([]float64, p.NNZ())
				if err := dec.Decompress(got, blob, frames[1]); err != nil {
					t.Fatalf("encoder workers=%d, %s decoder workers=%d: %v", workers, name, w, err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(frames[0][i]) {
						t.Fatalf("encoder workers=%d, %s decoder workers=%d: value %d differs", workers, name, w, i)
					}
				}
			}
		}
	}
}
