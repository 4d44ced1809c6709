package masczip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"masc/internal/atomicio"
	"masc/internal/compress/codectest"
	"masc/internal/sparse"
)

// goldenFrames returns the deterministic pattern and frame sequence the
// golden corpus is built from. math/rand's sequence for a fixed seed is
// covered by the Go 1 compatibility promise, so these values are stable
// across toolchains.
func goldenFrames() (*sparse.Pattern, [][]float64) {
	rng := rand.New(rand.NewSource(42))
	p := mnaPattern(rng, 16, 20)
	v := mnaValues(rng, p, 0.05)
	frames := [][]float64{v}
	for i := 0; i < 4; i++ {
		v = evolve(rng, v, 1e-6)
		frames = append(frames, v)
	}
	return p, frames
}

// goldenRunFrames returns the deterministic run-heavy frame chain behind
// the golden-runs corpora: long exact-hit runs and window-shared residual
// streaks, the inputs the word-parallel batched coder specializes for.
func goldenRunFrames() (*sparse.Pattern, [][]float64) {
	rng := rand.New(rand.NewSource(43))
	p := mnaPattern(rng, 24, 30)
	return p, runHeavyFrames(rng, p, 6)
}

// writeCorpus serializes blobs as: uvarint count, then per blob uvarint
// length + bytes. Written atomically so an interrupted MASC_UPDATE_GOLDEN
// run cannot leave a torn corpus that later runs trust.
func writeCorpus(path string, blobs [][]byte) error {
	out := binary.AppendUvarint(nil, uint64(len(blobs)))
	for _, b := range blobs {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	return atomicio.WriteFile(path, out, 0o644)
}

func readCorpus(path string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cnt, k := binary.Uvarint(raw)
	if k <= 0 {
		return nil, fmt.Errorf("bad corpus header")
	}
	off := k
	blobs := make([][]byte, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		l, k := binary.Uvarint(raw[off:])
		if k <= 0 || off+k+int(l) > len(raw) {
			return nil, fmt.Errorf("truncated corpus at blob %d", i)
		}
		off += k
		blobs = append(blobs, raw[off:off+int(l)])
		off += int(l)
	}
	return blobs, nil
}

// TestGoldenFormat pins the masczip wire format: the checked-in blobs must
// decode to the exact deterministic frame sequence, and a fresh encoder over
// the same frames must reproduce the blobs byte for byte (encode identity —
// the format has not silently drifted). Regenerate after a deliberate format
// change with MASC_UPDATE_GOLDEN=1 go test ./internal/compress/masczip
// -run TestGoldenFormat, and say so in the commit message.
func TestGoldenFormat(t *testing.T) {
	p, frames := goldenFrames()
	goldenCorpusTest(t, p, frames, nil, goldenFormatProfiles, 1)
}

// TestGoldenRuns pins the format over the run-heavy corpus: blobs dominated
// by long '1'-bit hit runs and shared-window residual streaks, the exact
// shapes the batched word-parallel paths rewrite. Any drift in run batching
// shows up here as an encode-identity failure.
func TestGoldenRuns(t *testing.T) {
	p, frames := goldenRunFrames()
	goldenCorpusTest(t, p, frames, nil, goldenRunsProfiles, 1)
}

type goldenProfile struct {
	name string
	opt  Options
}

var (
	goldenFormatProfiles = []goldenProfile{
		{"plain", Options{}},
		{"markov", Options{Markov: true, CalibEvery: 2}},
		{"chunked", Options{Workers: 3}},
	}
	goldenRunsProfiles = []goldenProfile{
		{"runs", Options{}},
		{"runs-markov", Options{Markov: true, CalibEvery: 3}},
		{"runs-chunked", Options{Workers: 4}},
	}
)

// historyOf is the history the store codes frame i of a chain against when
// its codecs read depth frames: the depth frames above it, fewer near the
// head, none at it.
func historyOf(frames [][]float64, i, depth int) [][]float64 {
	return frames[i+1 : min(i+1+depth, len(frames))]
}

// encodeChain encodes a frame chain through c the way a one-reference store
// does: frame i against frame i+1, the head frame unreferenced.
func encodeChain(c *Compressor, frames [][]float64) [][]byte {
	return encodeChainDepth(c, frames, 1)
}

// encodeChainDepth encodes a frame chain against depth frames of history.
func encodeChainDepth(c *Compressor, frames [][]float64, depth int) [][]byte {
	var blobs [][]byte
	for i := range frames {
		blobs = append(blobs, c.CompressHistory(nil, frames[i], codectest.Frames(historyOf(frames, i, depth)), nil))
	}
	return blobs
}

// goldenHistoryFrames returns the chain behind golden-history.bin: a tenth of
// the slots follow smooth waveforms of their own (the rest stand still), with
// a step in the middle of the chain that no order extrapolates across.
func goldenHistoryFrames() (*sparse.Pattern, [][]float64) {
	rng := rand.New(rand.NewSource(44))
	p := mnaPattern(rng, 20, 26)
	return p, waveformFrames(rng, p, 14, 7)
}

// TestGoldenHistory pins the format of blobs coded against a history: the
// order field of the flags byte and the extrapolated temporal candidate.
func TestGoldenHistory(t *testing.T) {
	p, frames := goldenHistoryFrames()
	goldenCorpusTest(t, p, frames, nil, []goldenProfile{{"history", Options{}}}, MaxOrder+1)
}

// TestGoldenStates pins the format of blobs coded with states beside their
// frames: the voltage flag and the voltage family's interpolation. The chain
// is branchVoltageFrames', every blob with two frames or more coded in the
// voltage.
func TestGoldenStates(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := mnaPattern(rng, 120, 180)
	frames, states := branchVoltageFrames(rng, p, 12)
	goldenCorpusTest(t, p, frames, states, []goldenProfile{{"states", Options{}}}, MaxOrder+1)
	golden, err := readCorpus(filepath.Join("testdata", "golden-states.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for i, blob := range golden[:len(golden)-2] {
		if _, volt := blobFamily(blob); !volt {
			t.Fatalf("golden-states blob %d (flags %#02x) is not coded in the voltage", i, blob[0])
		}
	}
}

func goldenCorpusTest(t *testing.T, p *sparse.Pattern, frames, states [][]float64, profiles []goldenProfile, depth int) {
	for _, prof := range profiles {
		t.Run(prof.name, func(t *testing.T) {
			blobs := encodeChainStates(New(p, prof.opt), frames, states, depth)

			path := filepath.Join("testdata", "golden-"+prof.name+".bin")
			if os.Getenv("MASC_UPDATE_GOLDEN") != "" {
				if err := writeCorpus(path, blobs); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := readCorpus(path)
			if err != nil {
				t.Fatalf("reading %s (regenerate with MASC_UPDATE_GOLDEN=1): %v", path, err)
			}

			// Encode identity.
			if len(golden) != len(blobs) {
				t.Fatalf("golden holds %d blobs, encoder produced %d", len(golden), len(blobs))
			}
			for i := range blobs {
				if !bytes.Equal(blobs[i], golden[i]) {
					t.Fatalf("blob %d: encoder output diverged from golden corpus (%d vs %d bytes);\n"+
						"if the format change is deliberate, regenerate with MASC_UPDATE_GOLDEN=1",
						i, len(blobs[i]), len(golden[i]))
				}
			}

			// Decode identity: a fresh decoder must invert the checked-in
			// corpus bit-exactly.
			decodeChainStates(t, New(p, prof.opt), golden, frames, states, depth)
		})
	}
}
