package masczip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"masc/internal/compress/bitstream"
	"masc/internal/compress/codectest"
	"masc/internal/sparse"
)

// adversarialBlobs are the decoder seeds TestCorruptedBlobNoPanic and
// FuzzDecompress share: the bad hit-run lengths, residual length tables and
// miss-run counts over p, nil-reference blobs whose flags byte names an
// extrapolation order, voltage-family blobs naming order 7 or cut off after
// the flags byte, and every blob of the golden corpora: well-formed blobs of
// this format over other patterns, refused at the element count unless their
// pattern's is p's.
func adversarialBlobs(t testing.TB, p *sparse.Pattern) [][]byte {
	var out [][]byte
	for _, tc := range badStreams(p) {
		out = append(out, tc.blob)
	}
	out = append(out, orderBlobs(p)...)
	out = append(out, badVoltageBlobs(t, p)...)
	files, err := filepath.Glob(filepath.Join("testdata", "golden-*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden corpora: %v", err)
	}
	for _, file := range files {
		blobs, err := readCorpus(file)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blobs...)
	}
	return out
}

// mnaPattern builds an MNA-like symmetric-structure pattern: a ring of
// two-terminal stamps plus random extra stamps, all with diagonals.
func mnaPattern(rng *rand.Rand, n, extraStamps int) *sparse.Pattern {
	b := sparse.NewBuilder(n)
	stamp := func(i, j int32) {
		b.Add(i, i)
		b.Add(j, j)
		b.Add(i, j)
		b.Add(j, i)
	}
	for i := 0; i < n; i++ {
		stamp(int32(i), int32((i+1)%n))
	}
	for e := 0; e < extraStamps; e++ {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i != j {
			stamp(i, j)
		}
	}
	return b.Build()
}

// mnaValues fills a value array with MNA-like structure: symmetric
// off-diagonal values, diagonals ≈ negated row sums, plus noise.
func mnaValues(rng *rand.Rand, p *sparse.Pattern, noise float64) []float64 {
	v := make([]float64, p.NNZ())
	tr := p.TransposeSlots()
	diag := p.DiagSlots()
	for i := int32(0); i < int32(p.N); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			j := p.ColIdx[k]
			if j <= i {
				continue
			}
			g := -(1 + rng.Float64()*9) // off-diagonal conductance, negative
			v[k] = g
			if t := tr[k]; t >= 0 {
				v[t] = g * (1 + noise*rng.NormFloat64())
			}
		}
	}
	for i := int32(0); i < int32(p.N); i++ {
		d := diag[i]
		if d < 0 {
			continue
		}
		sum := 0.0
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			if k != d {
				sum += v[k]
			}
		}
		v[d] = -sum * (1 + noise*rng.NormFloat64())
	}
	return v
}

// evolve perturbs values multiplicatively, mimicking a Newton-converged
// Jacobian at the next timestep.
func evolve(rng *rand.Rand, v []float64, eps float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * (1 + eps*rng.NormFloat64())
	}
	return out
}

func roundTrip(t *testing.T, c *Compressor, cur, ref []float64) []byte {
	t.Helper()
	blob := c.Compress(nil, cur, ref)
	got := make([]float64, len(cur))
	if err := c.Decompress(got, blob, ref); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	for i := range cur {
		if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
			t.Fatalf("value %d: got %x want %x", i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
		}
	}
	return blob
}

func TestRoundTripBestFit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := mnaPattern(rng, 60, 100)
	c := New(p, Options{})
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-4)
	roundTrip(t, c, cur, ref)
}

func TestRoundTripNilRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := mnaPattern(rng, 40, 60)
	c := New(p, Options{})
	cur := mnaValues(rng, p, 0.05)
	roundTrip(t, c, cur, nil)
}

func TestRoundTripMarkovSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := mnaPattern(rng, 50, 80)
	c := New(p, Options{Markov: true, CalibEvery: 4})
	vals := mnaValues(rng, p, 0.02)
	var ref []float64
	// A chain of matrices exercises both calibration and markov blobs.
	for step := 0; step < 10; step++ {
		roundTrip(t, c, vals, ref)
		ref = vals
		vals = evolve(rng, vals, 1e-5)
	}
}

func TestRoundTripParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := mnaPattern(rng, 200, 400)
	for _, workers := range []int{1, 2, 3, 8, 64} {
		c := New(p, Options{Workers: workers})
		ref := mnaValues(rng, p, 0.01)
		cur := evolve(rng, ref, 1e-4)
		roundTrip(t, c, cur, ref)
	}
}

func TestParallelBlobDecodableBySerial(t *testing.T) {
	// The chunk layout is stored in the blob, so a compressor configured
	// with different Workers must still decode it.
	rng := rand.New(rand.NewSource(5))
	p := mnaPattern(rng, 100, 200)
	enc := New(p, Options{Workers: 7})
	dec := New(p, Options{Workers: 1})
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-3)
	blob := enc.Compress(nil, cur, ref)
	got := make([]float64, len(cur))
	if err := dec.Decompress(got, blob, ref); err != nil {
		t.Fatal(err)
	}
	for i := range cur {
		if got[i] != cur[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestAblationsStillLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := mnaPattern(rng, 60, 120)
	opts := []Options{
		{DisableStamp: true},
		{DisableLastValue: true},
		{DisableStamp: true, DisableLastValue: true},
		{Markov: true, DisableStamp: true},
	}
	for oi, o := range opts {
		c := New(p, o)
		ref := mnaValues(rng, p, 0.02)
		cur := evolve(rng, ref, 1e-4)
		blob := c.Compress(nil, cur, ref)
		got := make([]float64, len(cur))
		if err := c.Decompress(got, blob, ref); err != nil {
			t.Fatalf("option %d: %v", oi, err)
		}
		for i := range cur {
			if got[i] != cur[i] {
				t.Fatalf("option %d: mismatch at %d", oi, i)
			}
		}
	}
}

func TestSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Three island rows: a diagonal with no off-diagonal, where both stamp
	// sums are empty.
	p := islandPattern(rng, 30, 40, 3)
	diag := p.DiagSlots()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	cur := mnaValues(rng, p, 0.01)
	copy(cur, specials)
	cur[diag[p.N-1]] = math.Copysign(0, -1) // −0 on an island: the value form's exact hit
	cur[diag[p.N-2]] = math.NaN()

	plainRef := evolve(rng, cur, 1e-3)
	plainRef[0] = 1 // don't let the NaN leak into ref arithmetic checks
	// A reference that itself holds −0, NaN and ±Inf, on diagonals, beside
	// them (so they enter Σref) and on an island.
	laced := evolve(rng, cur, 1e-3)
	for i, d := range diag {
		laced[d] = specials[i%len(specials)]
	}
	for k := 0; k < len(laced); k += 7 {
		laced[k] = specials[(k/7)%len(specials)]
	}
	for name, ref := range map[string][]float64{"evolved": plainRef, "specials": laced, "nil": nil} {
		t.Run(name, func(t *testing.T) {
			for _, opt := range []Options{{}, {Workers: 3}} {
				roundTrip(t, New(p, opt), cur, ref)
				roundTrip(t, newReference(p, opt), cur, ref)
			}
		})
	}
	checkNilRefIsValueForm(t, p, Options{}, cur)
	checkNilRefIsValueForm(t, p, Options{}, laced)
}

func TestCompressionRatioOnSmoothTensor(t *testing.T) {
	// Temporally smooth MNA tensors must compress far below 8 bytes/value.
	rng := rand.New(rand.NewSource(8))
	p := mnaPattern(rng, 300, 600)
	c := New(p, Options{})
	vals := mnaValues(rng, p, 0.0)
	var ref []float64
	var total, raw int
	for step := 0; step < 20; step++ {
		blob := c.Compress(nil, vals, ref)
		total += len(blob)
		raw += 8 * len(vals)
		ref = vals
		// Only a subset of entries move, and only slightly — like a
		// mildly nonlinear circuit between Newton-converged steps.
		vals = append([]float64(nil), vals...)
		for i := 0; i < len(vals)/10; i++ {
			k := rng.Intn(len(vals))
			vals[k] *= 1 + 1e-9*rng.NormFloat64()
		}
	}
	cr := float64(raw) / float64(total)
	if cr < 8 {
		t.Fatalf("compression ratio %.2f too low for a smooth tensor", cr)
	}
}

func TestMarkovSmallerThanBestFitOnStableData(t *testing.T) {
	// When the same model keeps winning, Markov mode should spend fewer
	// bits (no per-element selectors).
	rng := rand.New(rand.NewSource(9))
	p := mnaPattern(rng, 200, 300)
	base := mnaValues(rng, p, 0.0)
	seq := make([][]float64, 24)
	for i := range seq {
		seq[i] = evolve(rng, base, 1e-12)
	}
	size := func(opt Options) int {
		c := New(p, opt)
		total := 0
		var ref []float64
		for _, v := range seq {
			total += len(c.Compress(nil, v, ref))
			ref = v
		}
		return total
	}
	bf := size(Options{})
	mk := size(Options{Markov: true, CalibEvery: 8})
	if mk >= bf {
		t.Fatalf("markov (%d bytes) not smaller than best-fit (%d bytes)", mk, bf)
	}
}

// fewMissFrames is a chain in which each frame is the one before it with
// i % 2 of its values moved: every blob coded against its predecessor has no
// miss or one.
func fewMissFrames(rng *rand.Rand, p *sparse.Pattern, steps int) [][]float64 {
	frames := [][]float64{mnaValues(rng, p, 0.01)}
	for i := 1; i < steps; i++ {
		next := append([]float64(nil), frames[i-1]...)
		if i%2 == 1 {
			k := rng.Intn(len(next))
			next[k] *= 1 + 1e-6
		}
		frames = append(frames, next)
	}
	return frames
}

// TestFewMissesOmitTheTable: a Markov blob whose misses would write fewer
// selector bits than its table costs is written in the calibration form, best
// fit and table-less — the very blob a best-fit compressor writes — and
// decodes bit for bit; only the calibration blobs feed the tables' counts.
func TestFewMissesOmitTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := mnaPattern(rng, 40, 60)
	frames := fewMissFrames(rng, p, 12)
	mk := New(p, Options{Markov: true, CalibEvery: 4})
	bf := New(p, Options{})
	var ref []float64
	var calibrated markovCounts
	for i, cur := range frames {
		blob := roundTrip(t, mk, cur, ref)
		if want := bf.Compress(nil, cur, ref); string(blob) != string(want) {
			t.Fatalf("frame %d: Markov blob %d B, best-fit %d B: not the same blob", i, len(blob), len(want))
		}
		if blob[0]&flagCalib == 0 {
			t.Fatalf("frame %d (%d B) carries a table", i, len(blob))
		}
		if i%4 == 0 {
			calibrated = mk.cnt
		} else if mk.cnt != calibrated {
			t.Fatalf("frame %d, between calibrations, moved the counts:\n%+v\nafter the calibration %+v", i, mk.cnt, calibrated)
		}
		ref = cur
	}
}

// TestManyMissesKeepTheTable: where every value moves, the selectors the table
// saves outweigh it, so every blob between calibrations carries one.
func TestManyMissesKeepTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := mnaPattern(rng, 200, 300)
	base := mnaValues(rng, p, 0.0)
	c := New(p, Options{Markov: true, CalibEvery: 8})
	ref := base
	for i := 0; i < 16; i++ {
		cur := evolve(rng, base, 1e-12)
		blob := roundTrip(t, c, cur, ref)
		if got, want := blob[0]&flagCalib != 0, i%8 == 0; got != want {
			t.Fatalf("blob %d: calibration form %v, want %v", i, got, want)
		}
		ref = cur
	}
}

func TestStatsCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := mnaPattern(rng, 80, 150)
	c := New(p, Options{CollectStats: true})
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-6)
	c.Compress(nil, cur, ref)
	st := c.Stats()
	if st.Elements != int64(p.NNZ()) {
		t.Fatalf("stats cover %d elements, want %d", st.Elements, p.NNZ())
	}
	if st.Temporal+st.Stamp+st.LastValue != st.SelectorElements {
		t.Fatalf("model families don't add up: %+v", st)
	}
	if st.SelectorElements > st.Elements {
		t.Fatalf("selector elements exceed total: %+v", st)
	}
	var hist int64
	for _, h := range st.LZHist {
		hist += h
	}
	if hist != st.Elements {
		t.Fatalf("LZ histogram covers %d of %d", hist, st.Elements)
	}
	var regionBits, regionMisses int64
	for rg, elems := range []int{len(c.plan.uSlots), len(c.plan.lSlots), len(c.plan.dSlots)} {
		if st.RegionBits[rg] == 0 || st.RegionMisses[rg] == 0 {
			t.Fatalf("region %d of an evolved tensor booked nothing: %+v", rg, st)
		}
		if got := st.RegionHits[rg] + st.RegionMisses[rg]; got != int64(elems) {
			t.Fatalf("region %d: %d hits + %d misses, %d elements", rg, st.RegionHits[rg], st.RegionMisses[rg], elems)
		}
		regionBits += st.RegionBits[rg]
		regionMisses += st.RegionMisses[rg]
	}
	if regionBits != st.SelectorBits+st.PayloadBits {
		t.Fatalf("regions hold %d bits, selector+payload %d", regionBits, st.SelectorBits+st.PayloadBits)
	}
	if regionMisses != st.SelectorElements {
		t.Fatalf("regions hold %d misses, selector elements %d", regionMisses, st.SelectorElements)
	}
	// The split is of the real stream: the one chunk's bytes, less padding.
	if stream := int64(c.writers[0].Len()) * 8; regionBits > stream || regionBits <= stream-8 {
		t.Fatalf("regions hold %d bits, the chunk stream %d", regionBits, stream)
	}
	c.ResetStats()
	if c.Stats().Elements != 0 {
		t.Fatal("ResetStats did not clear")
	}

	// What the codec decided, on a tensor where it decides something: every
	// chained blob of an exactly symmetric pair-stamp tensor takes the mate
	// and the stamp as hit predictors, each region L is one length-coded run,
	// and the length fields are the bits booked for them.
	frames := pairStampFrames(rng, p, 5, true)
	_, st = chainBytes(c, frames)
	chained := int64(len(frames) - 1)
	if st.MateBlobs < chained || st.StampBlobs < chained {
		t.Fatalf("%d mate / %d stamp blobs of %d chained: %+v", st.MateBlobs, st.StampBlobs, chained, st)
	}
	if st.HitRuns[regionL] != st.MateBlobs || st.RegionHits[regionL] != st.MateBlobs*int64(len(c.plan.lSlots)) {
		t.Fatalf("region L: %d hits in %d runs over %d mate blobs", st.RegionHits[regionL], st.HitRuns[regionL], st.MateBlobs)
	}
	if st.RunLengthBits == 0 || st.RunLengthBits >= st.PayloadBits {
		t.Fatalf("run lengths took %d of %d payload bits", st.RunLengthBits, st.PayloadBits)
	}
}

func TestDecompressErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := mnaPattern(rng, 20, 30)
	c := New(p, Options{})
	cur := mnaValues(rng, p, 0.01)
	blob := c.Compress(nil, cur, nil)
	got := make([]float64, len(cur))
	if err := c.Decompress(got, nil, nil); err == nil {
		t.Fatal("expected error on empty blob")
	}
	if err := c.Decompress(got[:1], blob, nil); err == nil {
		t.Fatal("expected error on wrong length")
	}
	if err := c.Decompress(got, blob[:3], nil); err == nil {
		t.Fatal("expected error on truncated blob")
	}
	// A blob for a different pattern must be rejected by the sanity header.
	p2 := mnaPattern(rng, 21, 30)
	c2 := New(p2, Options{})
	got2 := make([]float64, p2.NNZ())
	if err := c2.Decompress(got2, blob, nil); err == nil {
		t.Fatal("expected error on foreign blob")
	}
}

// TestHeaderHardening feeds the decoder headers whose uvarints are
// individually plausible but adversarial in combination: chunk-boundary
// deltas past 2^31 (which would wrap negative through the int32 cast) and
// chunk lengths whose sum would overflow the payload offset. Those carry a
// valid flags byte, so they reach the parser they are aimed at; the flags
// cases put a first byte naming order 7 on an otherwise good blob, which must
// be refused with an error that names the byte; the order field and the
// voltage flag have their own parts.
func TestHeaderHardening(t *testing.T) {
	t.Run("order field", orderNeedsItsHistory)
	t.Run("voltage flag", voltageNeedsItsStates)
	rng := rand.New(rand.NewSource(21))
	p := mnaPattern(rng, 30, 40)
	c := New(p, Options{})
	got := make([]float64, p.NNZ())

	good := c.Compress(nil, mnaValues(rng, p, 0.01), nil)
	if err := c.Decompress(got, good, nil); err != nil {
		t.Fatal(err)
	}
	for _, flags := range []byte{good[0] | 7<<orderShift, 0xff, 7 << orderShift} {
		bad := append([]byte{flags}, good[1:]...)
		err := c.Decompress(got, bad, nil)
		if want := fmt.Sprintf("flags byte %#02x", flags); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("flags %#02x: %v, want an error naming %q", flags, err, want)
		}
	}

	// The hit-predictor bits are the blob's to set: a decoder built with
	// DisableStamp obeys them. A static, exactly symmetric frame is all hits
	// under either predictor, so the same stream decodes to the same values
	// with the bits forced on.
	static := pairStampFrames(rng, p, 1, false)[0]
	ablated := New(p, Options{DisableStamp: true})
	blob := ablated.Compress(nil, static, static)
	if blob[0]&(flagMateHit|flagStampHit) != 0 {
		t.Fatalf("DisableStamp encoder set hit-predictor bits: flags %#02x", blob[0])
	}
	blob[0] |= flagMateHit | flagStampHit
	if err := ablated.Decompress(got, blob, static); err != nil {
		t.Fatalf("hit-predictor bits on a DisableStamp decoder: %v", err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(static[i]) {
			t.Fatalf("hit-predictor bits on a DisableStamp decoder: value %d differs", i)
		}
	}

	hdr := func(nchunks uint64, extra ...uint64) []byte {
		b := append(header(), binary.AppendUvarint(nil, uint64(p.NNZ()))...)
		b = binary.AppendUvarint(b, nchunks)
		for _, v := range extra {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"delta wraps int32", hdr(3, 1<<33, 1)},
		{"delta zero", hdr(3, 0, 1)},
		{"delta past n", hdr(2, uint64(p.N)+7)},
		{"chunk count past n", hdr(uint64(p.N) + 1)},
		{"element count overflows int", append(header(), binary.AppendUvarint(nil, math.MaxUint64)...)},
		{"max chunk lengths", hdr(2, 1, math.MaxUint64, math.MaxUint64)},
		{"summed lengths overflow", hdr(4, 1, 1, 1,
			1<<62, 1<<62, 1<<62, 1<<62)},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic: %v", tc.name, r)
				}
			}()
			if err := c.Decompress(got, tc.blob, nil); err == nil {
				t.Fatalf("%s: decoder accepted adversarial header", tc.name)
			}
		}()
	}

	// The run-length fields and a region's length table are as
	// attacker-controlled as the header: each bad one is an error that names
	// the chunk and the field, from the production decoder and from the oracle
	// alike, never a clamp, an index past slots or a shift past a word — and a
	// bad table is an ErrLengthTable.
	tables := map[string]bool{}
	for _, tc := range badLengthTables(p) {
		tables[tc.name] = true
	}
	for _, tc := range badStreams(p) {
		for name, d := range map[string]*Compressor{"batched": c, "scalar": newReference(p, Options{})} {
			err := d.Decompress(got, tc.blob, nil)
			if err == nil || !strings.Contains(err.Error(), "chunk 0: region U: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s decoder: %v, want a chunk 0 region U error naming %q", tc.name, name, err, tc.want)
			}
			if errors.Is(err, ErrLengthTable) != tables[tc.name] {
				t.Errorf("%s, %s decoder: %v is an ErrLengthTable: %v", tc.name, name, err, !tables[tc.name])
			}
		}
	}
}

// header is the flags byte of a best-fit order-0 blob.
func header() []byte {
	return []byte{flagCalib}
}

// badStreams are the chunk streams the decoder must refuse: bad hit-run
// lengths, residual length tables and miss-run counts.
func badStreams(p *sparse.Pattern) []struct {
	name, want string
	blob       []byte
} {
	return append(append(badRunLengths(p), badLengthTables(p)...), badMissRuns(p)...)
}

// oneChunkBlob is a best-fit blob over p with one chunk whose stream is what
// body writes.
func oneChunkBlob(p *sparse.Pattern, body func(w *bitstream.Writer)) []byte {
	w := bitstream.NewWriter(16)
	body(w)
	b := append(header(), binary.AppendUvarint(nil, uint64(p.NNZ()))...)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, uint64(w.Len()))
	return w.AppendTo(b)
}

// badRunLengths are one-chunk blobs over p whose region U opens with a
// length-coded run the decoder must refuse: longer than the region, γ-coded
// with 32 leading zeros, and cut off inside the γ code.
func badRunLengths(p *sparse.Pattern) []struct {
	name, want string
	blob       []byte
} {
	craft := func(gamma func(w *bitstream.Writer)) []byte {
		return oneChunkBlob(p, func(w *bitstream.Writer) {
			w.WriteOnes(longRun)
			gamma(w)
		})
	}
	return []struct {
		name, want string
		blob       []byte
	}{
		{"run past the region", "exceeds", craft(func(w *bitstream.Writer) {
			w.WriteBits(1<<20, 41) // γ(2^20): a run of 2^20 + 7
			w.WriteBits(0, 64)
		})},
		{"run one past the region", "exceeds", craft(func(w *bitstream.Writer) {
			v := uint64(len(newPlan(p).uSlots) + 1 - longRun + 1)
			w.WriteBits(v, uint(2*bits.Len64(v)-1))
			w.WriteBits(0, 64)
		})},
		{"gamma overflow", "γ code", craft(func(w *bitstream.Writer) {
			w.WriteBits(0, 32)
			w.WriteBits(math.MaxUint64, 33)
		})},
		{"truncated gamma", "γ code", craft(func(w *bitstream.Writer) { w.WriteBits(0, 3) })},
	}
}

// badLengthTables are one-chunk blobs over p whose region U opens with a miss
// — the '0' marker and selector 0 — whose residual length table the decoder
// must refuse: a size γ code with 32 leading zeros, a length above 64 (the
// one length of a table of one, and the 66th of a table of 66 consecutive
// ones), a code of 0 bits beside another, three 1-bit codes
// (over-subscribed), a 1-bit and a 2-bit code (incomplete), and a table cut
// off inside a length's γ code. A table of no lengths, lengths out of order
// and codes longer than 15 bits have no bit string to craft: γ codes only
// positive numbers and a code length has four bits.
func badLengthTables(p *sparse.Pattern) []struct {
	name, want string
	blob       []byte
} {
	gamma := func(w *bitstream.Writer, v uint64) { w.WriteBits(v, uint(2*bits.Len64(v)-1)) }
	craft := func(table func(w *bitstream.Writer)) []byte {
		return oneChunkBlob(p, func(w *bitstream.Writer) {
			w.WriteBits(0, 3)
			table(w)
			w.WriteBits(0, 64)
		})
	}
	// lengths writes a table of the lengths s, each with its code length.
	lengths := func(s []uint64, n []uint64) []byte {
		return craft(func(w *bitstream.Writer) {
			gamma(w, uint64(len(s)))
			prev := uint64(0)
			for i := range s {
				gamma(w, s[i]+1-prev)
				prev = s[i] + 1
				w.WriteBits(n[i], codeLenBits)
			}
		})
	}
	consecutive := make([]uint64, 66)
	ones := make([]uint64, 66)
	for i := range consecutive {
		consecutive[i], ones[i] = uint64(i), 7
	}
	return []struct {
		name, want string
		blob       []byte
	}{
		{"size gamma overflow", "size γ code", craft(func(w *bitstream.Writer) { w.WriteBits(0, 32) })},
		{"one length above 64", "length 65 is above 64", craft(func(w *bitstream.Writer) {
			gamma(w, 1)
			gamma(w, 66)
		})},
		{"66 lengths", "length 65 is above 64", lengths(consecutive, ones)},
		{"code of 0 bits", "code of 0 bits", lengths([]uint64{3, 5}, []uint64{0, 1})},
		{"over-subscribed", "over-subscribed", lengths([]uint64{3, 5, 9}, []uint64{1, 1, 1})},
		{"incomplete", "incomplete", lengths([]uint64{3, 5}, []uint64{1, 2})},
		{"truncated table", "symbol γ code", oneChunkBlob(p, func(w *bitstream.Writer) {
			w.WriteBits(0, 3)
			gamma(w, 3)
		})},
	}
}

// badMissRuns are one-chunk blobs over p whose region U opens with missRun
// exact misses of symbol 0 — each the '0' marker and selector 0, the first
// with the table of one length, 0, whose code has no bits — and then a
// miss-run count the decoder must refuse: more misses than the region has
// slots left, one more than that, γ-coded with 32 leading zeros, and cut off
// inside the γ code.
func badMissRuns(p *sparse.Pattern) []struct {
	name, want string
	blob       []byte
} {
	craft := func(count func(w *bitstream.Writer)) []byte {
		return oneChunkBlob(p, func(w *bitstream.Writer) {
			w.WriteBits(0b000_1_1, 5)
			for i := 1; i < missRun; i++ {
				w.WriteBits(0, 3)
			}
			count(w)
		})
	}
	return []struct {
		name, want string
		blob       []byte
	}{
		{"miss run past the region", "miss run of", craft(func(w *bitstream.Writer) {
			w.WriteBits(1<<20, 41) // γ(2^20): 2^20 − 1 more misses
			w.WriteBits(0, 64)
		})},
		{"miss run one past the region", "miss run of", craft(func(w *bitstream.Writer) {
			v := uint64(len(newPlan(p).uSlots) - missRun + 2)
			w.WriteBits(v, uint(2*bits.Len64(v)-1))
			w.WriteBits(0, 64)
		})},
		{"miss-run gamma overflow", "miss run γ code", craft(func(w *bitstream.Writer) {
			w.WriteBits(0, 32)
			w.WriteBits(math.MaxUint64, 33)
		})},
		{"truncated miss-run gamma", "miss run γ code", craft(func(w *bitstream.Writer) { w.WriteBits(0, 3) })},
	}
}

// TestHeavyLastRowChunks: a last row holding more than a chunk's share of the
// entries must not get a chunk boundary of its own past it — the partitioner
// used to emit the pattern's end as a boundary, the last chunk empty, and the
// decoder refused the blob (TestQuickRoundTrip found it on a random seed).
func TestHeavyLastRowChunks(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.Add(0, 0)
	b.Add(1, 1)
	for c := int32(0); c < 3; c++ {
		b.Add(2, c)
	}
	p := b.Build()
	cur := []float64{1, 2, 3, 4, 5}
	for w := 1; w <= 4; w++ {
		c := New(p, Options{Workers: w})
		got := make([]float64, len(cur))
		if err := c.Decompress(got, c.Compress(nil, cur, nil), nil); err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		for i := range cur {
			if got[i] != cur[i] {
				t.Fatalf("workers %d: value %d is %g, want %g", w, i, got[i], cur[i])
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8, markov bool, workers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%50) + 4
		p := mnaPattern(rng, n, n)
		c := New(p, Options{Markov: markov, Workers: int(workers%5) + 1, CalibEvery: 3})
		var ref []float64
		for step := 0; step < 3; step++ {
			cur := mnaValues(rng, p, 0.1)
			blob := c.Compress(nil, cur, ref)
			got := make([]float64, len(cur))
			if err := c.Decompress(got, blob, ref); err != nil {
				return false
			}
			for i := range cur {
				if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
					return false
				}
			}
			ref = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := mnaPattern(rng, 2000, 6000)
	c := New(p, Options{})
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-6)
	var blob []byte
	b.SetBytes(int64(8 * len(cur)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob = c.Compress(blob[:0], cur, ref)
	}
}

func BenchmarkDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := mnaPattern(rng, 2000, 6000)
	c := New(p, Options{})
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-6)
	blob := c.Compress(nil, cur, ref)
	got := make([]float64, len(cur))
	b.SetBytes(int64(8 * len(cur)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decompress(got, blob, ref); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts is the Workers sweep for the scaling benchmarks:
// serial, a fixed mid point, and the full machine.
func benchWorkerCounts() []int {
	ws := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

func BenchmarkCompressWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := mnaPattern(rng, 2000, 6000)
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-6)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := New(p, Options{Workers: w})
			var blob []byte
			b.SetBytes(int64(8 * len(cur)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob = c.Compress(blob[:0], cur, ref)
			}
		})
	}
}

func BenchmarkDecompressWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := mnaPattern(rng, 2000, 6000)
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-6)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := New(p, Options{Workers: w})
			blob := c.Compress(nil, cur, ref)
			got := make([]float64, len(cur))
			b.SetBytes(int64(8 * len(cur)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Decompress(got, blob, ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCorruptedBlobNoPanic flips random bits/truncates blobs and requires
// Decompress to fail cleanly or produce garbage — never panic or over-
// allocate.
func TestCorruptedBlobNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := mnaPattern(rng, 40, 60)
	c := New(p, Options{Markov: true, CalibEvery: 2, Workers: 3})
	ref := mnaValues(rng, p, 0.02)
	cur := evolve(rng, ref, 1e-4)
	c.Compress(nil, cur, ref) // advance to a markov matrix
	blob := c.Compress(nil, cur, ref)
	got := make([]float64, len(cur))
	// The crafted header and length fields first, then random damage to a
	// good blob.
	vblob, hist, states := voltageBlob(t, p)
	for _, seed := range adversarialBlobs(t, p) {
		_ = c.Decompress(got, seed, ref)
		_ = c.Decompress(got, seed, nil)
		_ = c.DecompressHistory(got, seed, codectest.Frames(hist), states)
	}
	for trial := 0; trial < 600; trial++ {
		src, decode := blob, func(b []byte) error { return c.Decompress(got, b, ref) }
		if trial%2 == 1 { // a voltage-family blob, decoded against its frames and states
			src, decode = vblob, func(b []byte) error { return c.DecompressHistory(got, b, codectest.Frames(hist), states) }
		}
		mutated := append([]byte(nil), src...)
		switch trial / 2 % 3 {
		case 0: // single bit flip
			i := rng.Intn(len(mutated))
			mutated[i] ^= 1 << uint(rng.Intn(8))
		case 1: // truncation
			mutated = mutated[:rng.Intn(len(mutated))]
		case 2: // byte scramble in the header region
			if len(mutated) > 4 {
				mutated[rng.Intn(4)] = byte(rng.Intn(256))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			_ = decode(mutated)
		}()
	}
}

// TestChunkLayoutIndependentOfDecoderWorkers: blobs carry their own chunk
// layout; the decoder's Workers option must not matter.
func TestChunkLayoutIndependentOfDecoderWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := mnaPattern(rng, 120, 200)
	ref := mnaValues(rng, p, 0.01)
	cur := evolve(rng, ref, 1e-5)
	enc := New(p, Options{Workers: 5})
	blob := enc.Compress(nil, cur, ref)
	for _, w := range []int{1, 2, 8, 99} {
		dec := New(p, Options{Workers: w})
		got := make([]float64, len(cur))
		if err := dec.Decompress(got, blob, ref); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range cur {
			if got[i] != cur[i] {
				t.Fatalf("workers=%d: mismatch at %d", w, i)
			}
		}
	}
}
