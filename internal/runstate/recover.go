package runstate

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"masc/internal/blobframe"
)

// ErrNoConfig reports a journal whose very first frame is missing or
// invalid: nothing can be recovered from it.
var ErrNoConfig = errors.New("runstate: journal has no valid config record")

// ErrFormatVersion reports a journal whose config record is intact but was
// written under another FormatVersion. The error returned is a
// *FormatVersionError naming both versions; errors.Is matches it to this.
var ErrFormatVersion = errors.New("runstate: journal format version mismatch")

// FormatVersionError is the ErrFormatVersion Recover returns.
type FormatVersionError struct {
	Got, Want int
}

func (e *FormatVersionError) Error() string {
	return fmt.Sprintf("runstate: journal has format version %d, this binary reads and resumes version %d", e.Got, e.Want)
}

func (e *FormatVersionError) Is(target error) bool { return target == ErrFormatVersion }

// Recovered is the trusted prefix of a journal: every frame up to (not
// including) the first torn, corrupt, or semantically inconsistent one.
type Recovered struct {
	Config Config
	// Steps holds the contiguous forward checkpoints 0..len(Steps)-1.
	Steps []StepRec
	// ForwardDone reports whether the forward phase completed; ForwardSteps
	// is the final step index it recorded.
	ForwardDone  bool
	ForwardSteps int
	// Done is non-nil when the run finished.
	Done *DoneRec
	// Offset is the file offset just past the last valid frame — the append
	// point for a resumed run (everything beyond it is a torn tail).
	Offset int64
}

// LastStep returns the newest forward checkpoint, or nil when only the
// config record survived.
func (r *Recovered) LastStep() *StepRec {
	if len(r.Steps) == 0 {
		return nil
	}
	return &r.Steps[len(r.Steps)-1]
}

// Recover scans a journal to its last valid frame. The scan stops — without
// error — at the first frame that is incomplete (torn tail), fails its
// CRC32C, or violates the record grammar (a step out of order, a second
// config, a checkpoint after forward-done): everything after a bad frame is
// untrusted by construction, because append order is the only order. Only a
// missing or invalid leading config record (ErrNoConfig), or a valid one from
// another format version (ErrFormatVersion), is a hard error.
func Recover(path string) (*Recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstate: read journal: %w", err)
	}
	return scan(data)
}

// scan is Recover over the journal's bytes.
func scan(data []byte) (*Recovered, error) {
	rec := &Recovered{}
	off := 0
	for {
		if len(data)-off < blobframe.HeaderSize {
			break
		}
		kind, step, plen, perr := blobframe.Peek(data[off:])
		if perr != nil {
			break
		}
		end := off + blobframe.HeaderSize + plen
		if plen < 0 || end > len(data) {
			break // torn tail: the payload never finished writing
		}
		payload, oerr := blobframe.Open(data[off:end], kind, step)
		if oerr != nil {
			break
		}
		if off == 0 {
			if kind != KindConfig {
				return nil, ErrNoConfig
			}
		} else if kind == KindConfig {
			break // a second config mid-stream is nonsense
		}
		if !rec.apply(kind, step, payload) {
			break
		}
		if off == 0 && rec.Config.FormatVersion != FormatVersion {
			return nil, &FormatVersionError{Got: rec.Config.FormatVersion, Want: FormatVersion}
		}
		off = end
	}
	if off == 0 {
		return nil, ErrNoConfig
	}
	rec.Offset = int64(off)
	return rec, nil
}

// apply folds one verified frame into the recovered state; false means the
// frame is semantically inconsistent and the scan must stop before it.
func (r *Recovered) apply(kind byte, step int, payload []byte) bool {
	switch kind {
	case KindConfig:
		// The frame step is a fixed 0 for config records; checking it closes
		// the one header field the payload CRC cannot vouch for.
		if step != 0 {
			return false
		}
		return json.Unmarshal(payload, &r.Config) == nil
	case KindStep:
		if r.ForwardDone || step != len(r.Steps) {
			return false
		}
		sr, ok := decodeStep(step, payload)
		if !ok || (r.Config.N > 0 && len(sr.X) != r.Config.N) {
			return false
		}
		r.Steps = append(r.Steps, sr)
		return true
	case KindForwardDone:
		if r.ForwardDone || len(payload) != 4 {
			return false
		}
		n := int(binary.LittleEndian.Uint32(payload))
		if n != step || n != len(r.Steps)-1 {
			return false
		}
		r.ForwardDone = true
		r.ForwardSteps = n
		return true
	case KindDone:
		if step != 0 || !r.ForwardDone || r.Done != nil {
			return false
		}
		dr, ok := decodeDone(payload)
		if !ok {
			return false
		}
		r.Done = dr
		return true
	default:
		// Unknown kind: written by a future version, or the retired 'W'.
		return false
	}
}

// sized reports whether a payload of n bytes is exactly hdr header bytes,
// deg uint32s and rows×cols float64s. The counts come from the payload's own
// header, so it divides instead of multiplying and bounds each count by the
// bytes present: a forged header can neither wrap the comparison nor size an
// allocation past what is on disk.
func sized(n, hdr, deg, rows, cols int) bool {
	rest := n - hdr
	if rest < 0 || deg < 0 || rows < 0 || cols < 0 || deg > rest/4 || rows > n {
		return false
	}
	rest -= 4 * deg
	if cols == 0 || rows == 0 {
		return rest == 0
	}
	cells := rest / 8
	return rest%8 == 0 && cells%cols == 0 && cells/cols == rows
}

func decodeStep(step int, p []byte) (StepRec, bool) {
	if len(p) < 32 {
		return StepRec{}, false
	}
	n := int(binary.LittleEndian.Uint32(p[28:]))
	if !sized(len(p), 32, 0, 1, n) {
		return StepRec{}, false
	}
	sr := StepRec{
		Step:  step,
		T:     math.Float64frombits(binary.LittleEndian.Uint64(p[0:])),
		H:     math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		NextH: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		Cuts:  int(binary.LittleEndian.Uint32(p[24:])),
		X:     make([]float64, n),
	}
	for i := range sr.X {
		sr.X[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[32+8*i:]))
	}
	return sr, true
}

func decodeDone(p []byte) (*DoneRec, bool) {
	if len(p) < 12 {
		return nil, false
	}
	K := int(binary.LittleEndian.Uint32(p[0:]))
	P := int(binary.LittleEndian.Uint32(p[4:]))
	deg := int(binary.LittleEndian.Uint32(p[8:]))
	if !sized(len(p), 12, deg, K, P) {
		return nil, false
	}
	dr := &DoneRec{}
	off := 12
	if deg > 0 {
		dr.Degraded = make([]int, deg)
		for i := range dr.Degraded {
			dr.Degraded[i] = int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
		}
	}
	dr.DOdp = make([][]float64, K)
	for o := range dr.DOdp {
		row := make([]float64, P)
		for k := range row {
			row[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		}
		dr.DOdp[o] = row
	}
	return dr, true
}
