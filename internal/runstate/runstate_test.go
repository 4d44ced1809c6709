package runstate

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"masc/internal/blobframe"
)

// testPlan is a resolved plan in the shape a run journals it; runstate
// stores it byte for byte and never looks inside.
const testPlan = `{"transient":{"TStart":0,"TStep":1e-06,"TStop":0.001,"Method":"be"},` +
	`"storage":"masc","workers":1,"adjoint_workers":0,` +
	`"async":false,"pipeline_depth":0,"disk_bps":0,"disk_dir":"","mem_budget_bytes":0,` +
	`"disable_degrade":false,"objectives":[{"Name":"v(out)","Node":1,"Weight":1,"Step":0,` +
	`"Integral":false}],"params":[0,1,2]}`

func testConfig() *Config {
	return &Config{
		CircuitHash: 0xdeadbeefcafe,
		N:           3,
		FsyncEvery:  4,
		Plan:        json.RawMessage(testPlan),
	}
}

func writeSample(t testing.TB, path string) {
	t.Helper()
	w, err := Create(path, testConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 6; i++ {
		rec := &StepRec{Step: i, T: float64(i) * 1e-6, H: 1e-6, NextH: 1e-6,
			Cuts: i % 2, X: []float64{float64(i), -float64(i), math.Pi * float64(i)}}
		if i == 0 {
			rec.H = 0
		}
		if err := w.AppendStep(rec); err != nil {
			t.Fatalf("AppendStep %d: %v", i, err)
		}
	}
	if err := w.ForwardDone(5); err != nil {
		t.Fatalf("ForwardDone: %v", err)
	}
	if err := w.Done([][]float64{{0.25, -1.5, 1e-30}}, []int{2}); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	writeSample(t, path)
	r, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if r.Config.CircuitHash != 0xdeadbeefcafe || r.Config.FormatVersion != FormatVersion ||
		string(r.Config.Plan) != testPlan {
		t.Fatalf("config mismatch: %+v", r.Config)
	}
	if len(r.Steps) != 6 {
		t.Fatalf("steps = %d, want 6", len(r.Steps))
	}
	if !r.ForwardDone || r.ForwardSteps != 5 {
		t.Fatalf("forward done = %v/%d", r.ForwardDone, r.ForwardSteps)
	}
	s3 := r.Steps[3]
	if s3.Step != 3 || s3.T != 3e-6 || s3.Cuts != 1 || s3.X[2] != math.Pi*3 {
		t.Fatalf("step 3 mismatch: %+v", s3)
	}
	if r.Done == nil || r.Done.DOdp[0][2] != 1e-30 || r.Done.Degraded[0] != 2 {
		t.Fatalf("done mismatch: %+v", r.Done)
	}
	fi, _ := os.Stat(path)
	if r.Offset != fi.Size() {
		t.Fatalf("offset %d != file size %d", r.Offset, fi.Size())
	}
}

// Truncating the journal at every possible byte length must either recover
// a strictly shorter valid prefix or (below the config record) fail with
// ErrNoConfig — never an invented record, never a crash.
func TestRecoverTruncationMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	writeSample(t, path)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.journal")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(trunc, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(trunc)
		if err != nil {
			continue // no config survived: correct for small cuts
		}
		if r.Offset > int64(cut) {
			t.Fatalf("cut %d: offset %d beyond file", cut, r.Offset)
		}
		if len(r.Steps) > len(ref.Steps) {
			t.Fatalf("cut %d: more steps than the full journal", cut)
		}
		// Recovered steps must be a prefix of the true trajectory.
		for i, s := range r.Steps {
			if s.T != ref.Steps[i].T || s.X[0] != ref.Steps[i].X[0] {
				t.Fatalf("cut %d: step %d differs from reference", cut, i)
			}
		}
		if r.Done != nil && cut < len(full) {
			// The Done record is the last frame; any cut strictly before the
			// end must drop it.
			t.Fatalf("cut %d: Done record survived truncation", cut)
		}
	}
}

// Flipping any single byte of the file must never yield a record the full
// journal does not contain (the CRC catches it and the scan stops).
func TestRecoverCorruptionStopsScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	writeSample(t, path)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(dir, "mut.journal")
	// Sample a spread of offsets (every 7th byte keeps the test fast).
	for off := 0; off < len(full); off += 7 {
		data := append([]byte(nil), full...)
		data[off] ^= 0x40
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(mut)
		if err != nil {
			continue // config destroyed — correct hard failure
		}
		if r.Offset > int64(off) {
			// The scan accepted bytes at or past the flipped one: the flip
			// must then be inside a frame the CRC did not catch — impossible.
			t.Fatalf("flip at %d: scan trusted offset %d", off, r.Offset)
		}
	}
}

func TestAppendAfterRecover(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	w, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendStep(&StepRec{Step: i, T: float64(i), NextH: 1, X: []float64{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn tail: chop 5 bytes off the last record.
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 2 {
		t.Fatalf("recovered %d steps, want 2", len(r.Steps))
	}
	w2, err := Append(path, r.Offset, &r.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendStep(&StepRec{Step: 2, T: 2, NextH: 1, X: []float64{4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := w2.ForwardDone(2); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Steps) != 3 || !r2.ForwardDone || r2.Steps[2].X[0] != 4 {
		t.Fatalf("after append: %d steps, done=%v", len(r2.Steps), r2.ForwardDone)
	}
}

// retiredWindowFrame seals one window record as earlier binaries journaled
// it: kind 'W', step j, then j, lo, hi, the row length and the degraded count
// as uint32s, the degraded steps, and the rows' float64 images.
func retiredWindowFrame(j, lo, hi int, rows [][]float64, degraded []int) []byte {
	rowLen := 0
	if len(rows) > 0 {
		rowLen = len(rows[0])
	}
	var p []byte
	for _, v := range []int{j, lo, hi, rowLen, len(degraded)} {
		p = binary.LittleEndian.AppendUint32(p, uint32(v))
	}
	for _, d := range degraded {
		p = binary.LittleEndian.AppendUint32(p, uint32(d))
	}
	for _, row := range rows {
		for _, v := range row {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
	}
	return blobframe.Wrap('W', j, p)
}

// TestRecoverStopsAtRetiredWindowRecord: earlier binaries journaled each
// window of a windowed reverse sweep as a 'W' record after forward-done.
// Recover treats the retired kind like any unknown one — the trusted prefix
// ends before it, so what follows (here a done record) is dropped and a
// resume runs the reverse sweep again.
func TestRecoverStopsAtRetiredWindowRecord(t *testing.T) {
	prefix := forwardDonePrefix(t)
	window := retiredWindowFrame(0, 0, 0, [][]float64{{1}}, nil)
	done := blobframe.Wrap(KindDone, 0, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	data := append(append(append([]byte(nil), prefix...), window...), done...)
	r, err := scan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ForwardDone || r.Done != nil || r.Offset != int64(len(prefix)) {
		t.Fatalf("forward done %v, done record %v, offset %d; want true, none, %d",
			r.ForwardDone, r.Done, r.Offset, len(prefix))
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.journal")
	if err := os.WriteFile(path, []byte("this is not a journal at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); err == nil {
		t.Fatal("expected ErrNoConfig for garbage")
	}
}

// TestRecoverRejectsOtherFormatVersion: a journal whose config frame is
// intact but carries another format version is refused as such — with both
// versions in the error — rather than reported as having no config at all.
func TestRecoverRejectsOtherFormatVersion(t *testing.T) {
	// Version 1 factored in RCM order; version 4 spelled the plan out as
	// fields of the config; versions 2, 3, 5, 6 and 7 were written by
	// binaries with an older masczip.
	for _, version := range []int{1, 2, 3, 4, 5, 6, 7, FormatVersion + 1} {
		cfg := testConfig()
		cfg.FormatVersion = version
		payload, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "old.journal")
		if err := os.WriteFile(path, blobframe.Wrap(KindConfig, 0, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Recover(path)
		if !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("Recover of a version-%d journal: %v, want ErrFormatVersion", version, err)
		}
		var fv *FormatVersionError
		if !errors.As(err, &fv) || fv.Got != version || fv.Want != FormatVersion {
			t.Fatalf("Recover of a version-%d journal: %#v, want got %d / want %d", version, err, version, FormatVersion)
		}
	}
}
