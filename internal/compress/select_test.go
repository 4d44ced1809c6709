package compress

import (
	"math"
	"testing"
	"time"

	"masc/internal/tiersched"
)

// fakeCodec is a deterministic stand-in: every Compress emits outBytes
// bytes regardless of input, so trial scores depend only on the injected
// clock and the configured size.
type fakeCodec struct {
	name     string
	outBytes int
	lossless bool
	calls    int
}

func (f *fakeCodec) Name() string   { return f.name }
func (f *fakeCodec) Lossless() bool { return f.lossless }
func (f *fakeCodec) Compress(dst []byte, cur, ref []float64) []byte {
	f.calls++
	return append(dst, make([]byte, f.outBytes)...)
}
func (f *fakeCodec) Decompress(cur []float64, blob []byte, ref []float64) error { return nil }

func frames(n, vals int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, vals)
		for k := range out[i] {
			out[i][k] = float64(i*vals + k)
		}
	}
	return out
}

func TestRunTrialDeterministic(t *testing.T) {
	j := &fakeCodec{name: "x", outBytes: 10, lossless: true}
	c := &fakeCodec{name: "x", outBytes: 10, lossless: true}
	jF, cF := frames(4, 8), frames(4, 8)
	clk := tiersched.NewFakeClock(time.Millisecond)
	res := RunTrial(NewCandidate("x", j, c), jF, cF, nil, clk)

	// 4 warm-up + 3×4 scored calls per tensor.
	if j.calls != 16 || c.calls != 16 {
		t.Fatalf("compress calls J=%d C=%d, want 16/16", j.calls, c.calls)
	}
	if res.RawBytes != 2*4*8*8 {
		t.Fatalf("RawBytes = %d, want %d", res.RawBytes, 2*4*8*8)
	}
	if res.CompressedBytes != 2*4*10 {
		t.Fatalf("CompressedBytes = %d, want %d", res.CompressedBytes, 2*4*10)
	}
	// FakeClock ticks 1ms per Now; each of the 8 Compress calls is bracketed
	// by two Now calls, so the meter sees exactly 8ms.
	wantSec := 8 * time.Millisecond.Seconds()
	wantScore := float64(res.RawBytes-res.CompressedBytes) / wantSec
	if math.Abs(res.Score-wantScore) > 1e-9*wantScore {
		t.Fatalf("Score = %g, want %g", res.Score, wantScore)
	}
	if !res.Committable {
		t.Fatalf("lossless pair must be committable")
	}

	// Identical run, identical result — selection is deterministic under an
	// injected clock.
	j2 := &fakeCodec{name: "x", outBytes: 10, lossless: true}
	c2 := &fakeCodec{name: "x", outBytes: 10, lossless: true}
	res2 := RunTrial(NewCandidate("x", j2, c2), jF, cF, nil, tiersched.NewFakeClock(time.Millisecond))
	if res2 != res {
		t.Fatalf("repeat trial diverged: %+v vs %+v", res2, res)
	}
}

// historyCodec is a fakeCodec that reads a history: each blob is one byte per
// reference frame it was handed and 100 more when it was handed their states.
type historyCodec struct {
	fakeCodec
	depth int
}

func (h *historyCodec) HistoryDepth() int { return h.depth }
func (h *historyCodec) CompressHistory(dst []byte, cur []float64, hist, states [][]float64) []byte {
	n := len(hist)
	if states != nil {
		if len(states) != len(hist)+1 {
			panic("states do not match the frames")
		}
		n += 100
	}
	return append(dst, make([]byte, n)...)
}
func (h *historyCodec) DecompressHistory(cur []float64, blob []byte, hist, states [][]float64) error {
	return nil
}

// TestRunTrialScoresTheChain: the trial codes each frame as the chain store
// does — against as many frames above it as the codec reads, with their
// states when every step has one — not against one reference.
func TestRunTrialScoresTheChain(t *testing.T) {
	const steps, depth = 8, 3
	frames := frames(steps, 4)
	states := frames // any arrays will do
	var want int64
	for i := 0; i < steps; i++ {
		want += int64(min(depth, steps-1-i))
	}
	for _, tc := range []struct {
		name   string
		states [][]float64
		want   int64
	}{
		{"no states", nil, want},
		{"states", states, want + 100*(steps-1)},
		// Step 5 has no state: steps 2–5 read it; 0, 1 and 6 do not, and 7 reads
		// no frame.
		{"a step without", append(append([][]float64(nil), states[:5]...), append([][]float64{nil}, states[6:]...)...),
			want + 100*3},
	} {
		j := &historyCodec{fakeCodec{name: "h", lossless: true}, depth}
		c := &historyCodec{fakeCodec{name: "h", lossless: true}, depth}
		res := RunTrial(NewCandidate("h", j, c), frames, frames, tc.states, tiersched.NewFakeClock(time.Millisecond))
		if res.CompressedBytes != 2*tc.want {
			t.Errorf("%s: trial scored %d bytes, the chain stores %d", tc.name, res.CompressedBytes, 2*tc.want)
		}
	}
}

func TestRunTrialInflation(t *testing.T) {
	// A codec that inflates (emits more than raw) must score negative, never
	// win against a shrinking one.
	big := &fakeCodec{name: "bloat", outBytes: 1000, lossless: true}
	bigC := &fakeCodec{name: "bloat", outBytes: 1000, lossless: true}
	res := RunTrial(NewCandidate("bloat", big, bigC), frames(3, 4), frames(3, 4), nil,
		tiersched.NewFakeClock(time.Millisecond))
	if res.Score >= 0 {
		t.Fatalf("inflating codec scored %g, want negative", res.Score)
	}
}

func TestPickPrefersEarlierOnTie(t *testing.T) {
	results := []TrialResult{
		{Name: "masc", Committable: true, Score: 100},
		{Name: "gzip", Committable: true, Score: 100},
	}
	if got := Pick(results); got != 0 {
		t.Fatalf("tie picked index %d, want 0 (earlier entry)", got)
	}
}

func TestPickSkipsLossy(t *testing.T) {
	results := []TrialResult{
		{Name: "masc", Committable: true, Score: 10},
		{Name: "spicemate", Committable: false, Score: 1e12},
	}
	if got := Pick(results); got != 0 {
		t.Fatalf("lossy candidate won (index %d); must never be committable", got)
	}
	if got := Pick([]TrialResult{{Name: "spicemate", Committable: false, Score: 1}}); got != -1 {
		t.Fatalf("all-lossy menu picked %d, want -1", got)
	}
}

func TestPickHigherScoreWins(t *testing.T) {
	results := []TrialResult{
		{Name: "masc", Committable: true, Score: 10},
		{Name: "gzip", Committable: true, Score: 50},
		{Name: "markov", Committable: true, Score: 30},
	}
	if got := Pick(results); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

func TestTrialResultRatio(t *testing.T) {
	if r := (TrialResult{RawBytes: 100, CompressedBytes: 25}).Ratio(); r != 4 {
		t.Fatalf("Ratio = %g, want 4", r)
	}
	if r := (TrialResult{RawBytes: 100}).Ratio(); r != 0 {
		t.Fatalf("empty Ratio = %g, want 0", r)
	}
}
