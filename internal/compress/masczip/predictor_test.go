package masczip

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"masc/internal/sparse"
)

// The wire-identity tests run encoder, decoder and the scalar oracle through
// the one candsD, so they cannot see a wrong formula. These tests hold
// region D's stamp candidate against arithmetic written out here and against
// the value form it replaced (candsDValueForm in reference_test.go).

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
	diag := p.DiagSlots()
	frames := pairStampFrames(rng, p, 12, true)

	// Candidate against arithmetic, and residual width against the claim.
	var misses, cheap int
	var cands [4]float64
	pl := newPlan(p)
	for i := 0; i+1 < len(frames); i++ {
		cur, ref := frames[i], frames[i+1]
		cc := chunkCoder{plan: pl, opt: &Options{}, cur: cur, ref: ref}
		for row := int32(0); row < int32(p.N); row++ {
			d := diag[row]
			if math.Float64bits(cur[d]) == math.Float64bits(ref[d]) {
				continue
			}
			misses++
			var sumCur, sumRef float64
			for s := p.RowPtr[row]; s < p.RowPtr[row+1]; s++ {
				if s != d {
					sumCur += cur[s]
					sumRef += ref[s]
				}
			}
			want := ref[d] - (sumCur - sumRef)
			if n := cc.candsD(row, d, &cands); n != dSyms || cands[0] != ref[d] || cands[1] != want {
				t.Fatalf("step %d row %d: candidates %v (n=%d), want [%g %g]", i, row, cands[:n], n, ref[d], want)
			}
			x := math.Float64bits(cur[d]) ^ math.Float64bits(cands[1])
			if x == 0 || 64-bits.LeadingZeros64(x)-bits.TrailingZeros64(x) <= 16 {
				cheap++
			}
		}
	}
	if coded := (len(frames) - 1) * p.N; misses*10 < coded*9 {
		t.Fatalf("fixture: only %d of %d diagonals changed", misses, coded)
	}
	if cheap*10 < misses*9 {
		t.Fatalf("stamp candidate exact or within 16 bits on %d of %d changed diagonals, want ≥ 90%%", cheap, misses)
	}

	// The coder spends accordingly, and less than the value form did.
	diffBytes, diffStats := chainBytes(New(p, Options{CollectStats: true}), frames)
	valueBytes, valueStats := chainBytes(newReferenceWith(p, Options{CollectStats: true}, candsDValueForm), frames)
	if diffStats.RegionMisses[regionD] != valueStats.RegionMisses[regionD] {
		t.Fatalf("D misses %d vs %d: a miss is a property of the data, not of the predictor",
			diffStats.RegionMisses[regionD], valueStats.RegionMisses[regionD])
	}
	perMiss := func(st Stats) float64 {
		return float64(st.RegionBits[regionD]) / float64(st.RegionMisses[regionD])
	}
	if got := perMiss(diffStats); got > 16 {
		t.Errorf("region D costs %.1f bits per miss, want ≤ 16 (value form: %.1f)", got, perMiss(valueStats))
	}
	if diffBytes >= valueBytes {
		t.Errorf("difference form %d B, value form %d B: want strictly smaller", diffBytes, valueBytes)
	}

	// With nothing grounded the value identity holds too; the difference form
	// pays two roundings for one and must stay within 1 %.
	floating := pairStampFrames(rng, p, 12, false)
	diffBytes, _ = chainBytes(New(p, Options{}), floating)
	valueBytes, _ = chainBytes(newReferenceWith(p, Options{}, candsDValueForm), floating)
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
	want := newReferenceWith(p, opt, candsDValueForm).Compress(nil, cur, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("nil-reference blob differs from the value-form oracle's (%d vs %d bytes)", len(got), len(want))
	}
}
