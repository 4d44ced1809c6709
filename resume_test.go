package masc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"masc/internal/blobframe"
	"masc/internal/workload"
)

// journalFrameEnds scans a journal's frame boundaries: every frame end is a
// clean truncation point, every end plus a few bytes a torn one.
func journalFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(data) {
		_, _, plen, err := blobframe.Peek(data[off:])
		if err != nil {
			t.Fatalf("bad frame at offset %d: %v", off, err)
		}
		off += blobframe.HeaderSize + plen
		if off > len(data) {
			t.Fatal("journal ends mid-frame")
		}
		ends = append(ends, off)
	}
	return ends
}

func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d objectives, want %d", label, len(got), len(want))
	}
	for o := range want {
		for k := range want[o] {
			if math.Float64bits(got[o][k]) != math.Float64bits(want[o][k]) {
				t.Fatalf("%s: DOdp[%d][%d] = %x, want %x", label, o, k,
					math.Float64bits(got[o][k]), math.Float64bits(want[o][k]))
			}
		}
	}
}

// TestJournalResumeTruncateAnywhere is the tentpole property at the facade:
// a journaled run's journal, truncated at ANY point — frame boundaries, torn
// mid-frame, mid-forward, after forward-done, between adjoint window records,
// or complete — either refuses to resume (nothing recovered) or resumes to
// bit-identical sensitivities.
func TestJournalResumeTruncateAnywhere(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.journal")
	opt := SimOptions{TStep: 2e-6, TStop: 2e-4, Storage: StorageMASC,
		AdjointWindows: 3, Journal: refPath, JournalFsyncEvery: 8}
	objs := []Objective{obj, {Name: "int(v)", Node: obj.Node, Weight: 2, Integral: true}}
	ref, err := Simulate(ckt, opt, objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalFrameEnds(t, data)
	if len(ends) < 10 {
		t.Fatalf("journal has only %d frames", len(ends))
	}

	cuts := map[int]bool{0: true, 1: true, ends[0] - 3: true}
	for _, i := range []int{0, 1, len(ends) / 4, len(ends) / 2,
		len(ends) - 5, len(ends) - 4, len(ends) - 3, len(ends) - 2, len(ends) - 1} {
		if i < 0 || i >= len(ends) {
			continue
		}
		cuts[ends[i]] = true   // clean cut after a frame
		cuts[ends[i]+7] = true // torn a few bytes into the next frame
	}
	for cut := range cuts {
		if cut > len(data) {
			cut = len(data)
		}
		p := filepath.Join(dir, fmt.Sprintf("cut%d.journal", cut))
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		run, err := Resume(ckt, p, SimOptions{})
		if cut < ends[0] {
			if err == nil {
				t.Fatalf("cut %d inside the config frame resumed anyway", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		sameBits(t, fmt.Sprintf("cut %d", cut), run.Sens.DOdp, ref.Sens.DOdp)

		// The healed journal ends in a done record now: resuming again must
		// short-circuit to the same result without replaying anything.
		again, err := Resume(ckt, p, SimOptions{})
		if err != nil {
			t.Fatalf("cut %d: second resume: %v", cut, err)
		}
		if again.Tran != nil {
			t.Fatalf("cut %d: second resume replayed the forward phase", cut)
		}
		sameBits(t, fmt.Sprintf("cut %d (short-circuit)", cut), again.Sens.DOdp, ref.Sens.DOdp)
	}
}

// TestJournalResumeAfterForwardCrash aborts a journaled run mid-forward (the
// in-process stand-in for a kill) and resumes it in place.
func TestJournalResumeAfterForwardCrash(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	dir := t.TempDir()
	opt := SimOptions{TStep: 2e-6, TStop: 1e-4, Storage: StorageMASC, AdjointWindows: 2}
	objs := []Objective{obj}

	opt.Journal = filepath.Join(dir, "ref.journal")
	ref, err := Simulate(ckt, opt, objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	opt.Journal = filepath.Join(dir, "crash.journal")
	copt := opt
	copt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
		if step == 25 {
			return errors.New("simulated crash")
		}
		return nil
	}
	if _, err := Simulate(ckt, copt, objs, nil); err == nil {
		t.Fatal("crashing run succeeded")
	}
	run, err := Resume(ckt, opt.Journal, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume after crash", run.Sens.DOdp, ref.Sens.DOdp)
}

// TestResumeReseedSealsTheSameBlobs: a resumed run re-seeds its store from the
// journal's states, not the solver's, and the chain codes C in the branch
// voltage from those states — so the resumed store must seal what the
// uninterrupted run sealed, to the byte and to the codec's every decision.
func TestResumeReseedSealsTheSameBlobs(t *testing.T) {
	ds, err := workload.Build("MOS_T7", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := SimOptions{Transient: ds.Tran, Storage: StorageMASC, CollectCodecStats: true,
		Journal: filepath.Join(dir, "ref.journal")}
	ref, err := Simulate(ds.Ckt, opt, ds.Objectives, ds.Params)
	if err != nil {
		t.Fatal(err)
	}
	var volt int64
	for _, n := range ref.CodecStatsC.VoltBlobs {
		volt += n
	}
	if volt == 0 {
		t.Fatal("the reference run coded no blob of C in the voltage")
	}

	opt.Journal = filepath.Join(dir, "crash.journal")
	copt := opt
	copt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
		if step == ref.TensorStats.Steps/2 {
			return errors.New("simulated crash")
		}
		return nil
	}
	if _, err := Simulate(ds.Ckt, copt, ds.Objectives, ds.Params); err == nil {
		t.Fatal("crashing run succeeded")
	}
	run, err := Resume(ds.Ckt, opt.Journal, SimOptions{CollectCodecStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume", run.Sens.DOdp, ref.Sens.DOdp)
	if run.TensorStats.StoredBytes != ref.TensorStats.StoredBytes {
		t.Fatalf("resumed store holds %d B, the uninterrupted one %d B", run.TensorStats.StoredBytes, ref.TensorStats.StoredBytes)
	}
	if run.CodecStatsG != ref.CodecStatsG || run.CodecStatsC != ref.CodecStatsC {
		t.Fatalf("resumed codecs decided otherwise: C VoltBlobs %v RegionBits %v, uninterrupted %v %v",
			run.CodecStatsC.VoltBlobs, run.CodecStatsC.RegionBits, ref.CodecStatsC.VoltBlobs, ref.CodecStatsC.RegionBits)
	}
}

// TestResumeRejectsForeignCircuit: a journal must not resume against a
// circuit whose topology or parameter values differ.
func TestResumeRejectsForeignCircuit(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	if _, err := Simulate(ckt, SimOptions{TStep: 2e-6, TStop: 5e-5, Journal: path},
		[]Objective{obj}, nil); err != nil {
		t.Fatal(err)
	}

	b := NewBuilder()
	b.AddVSource("vin", "in", "0", Sin{VA: 1, Freq: 5e3})
	b.AddResistor("r1", "in", "mid", 999) // nudged value
	b.AddCapacitor("c1", "mid", "0", 1e-8)
	b.AddDiode("d1", "mid", "out")
	b.AddResistor("r2", "out", "0", 5e3)
	b.AddCapacitor("c2", "out", "0", 2e-8)
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(other, path, SimOptions{}); err == nil {
		t.Fatal("resume accepted a circuit with a nudged parameter")
	}
	if _, err := Resume(ckt, path, SimOptions{}); err != nil {
		t.Fatalf("resume rejected the original circuit: %v", err)
	}
}

// TestResumeRejectsOtherFormatVersion: a journal checkpointed by a binary
// with another journal format (version 1 factored in RCM column order,
// version 2 spilled masczip blobs without the stamp revision bit, version 3
// without the hit-run one) is refused
// by name, not continued and not mistaken for an empty journal.
func TestResumeRejectsOtherFormatVersion(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	if _, err := Simulate(ckt, SimOptions{TStep: 2e-6, TStop: 5e-5, Journal: path},
		[]Objective{obj}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := journalFrameEnds(t, data)[0]
	var cfg map[string]any
	if err := json.Unmarshal(data[blobframe.HeaderSize:end], &cfg); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{1, 2, 3} {
		cfg["format_version"] = version
		payload, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		old := append(blobframe.Wrap('R', 0, payload), data[end:]...)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(ckt, path, SimOptions{}); !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("resume of a version-%d journal: %v, want ErrFormatVersion", version, err)
		}
	}
}

// TestResumeRejectsRetiredStorage: a journal whose config names a storage this
// build no longer has ("auto", the retired codec trial) fails by that name when
// unfinished, before the journal is reopened, so the file is left as it was; a
// finished one still returns its recorded sensitivities, which need no store.
func TestResumeRejectsRetiredStorage(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	good, err := Simulate(ckt, SimOptions{TStep: 2e-6, TStop: 5e-5, Journal: path},
		[]Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalFrameEnds(t, data)
	// UseNumber keeps the 64-bit circuit hash exact through the rewrite.
	dec := json.NewDecoder(bytes.NewReader(data[blobframe.HeaderSize:ends[0]]))
	dec.UseNumber()
	var cfg map[string]any
	if err := dec.Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	cfg["storage"] = "auto"
	payload, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retired := func(cut int) []byte {
		journal := append(blobframe.Wrap('R', 0, payload), data[ends[0]:cut]...)
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		return journal
	}

	unfinished := retired(ends[len(ends)/3])
	_, err = Resume(ckt, path, SimOptions{})
	if err == nil || !strings.Contains(err.Error(), `"auto"`) {
		t.Fatalf("resume of an unfinished auto journal: %v, want an error naming \"auto\"", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, unfinished) {
		t.Fatalf("the refused resume touched the journal (%d bytes, was %d; %v)", len(after), len(unfinished), err)
	}

	retired(len(data))
	done, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatalf("resume of a finished auto journal: %v", err)
	}
	sameBits(t, "finished auto journal", done.Sens.DOdp, good.Sens.DOdp)
}

// TestSimulateCancellation: a pre-canceled context and an expired deadline
// both surface as the context error from Simulate, and a journaled run
// interrupted that way stays resumable.
func TestSimulateCancellation(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	objs := []Objective{obj}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ckt, SimOptions{TStep: 2e-6, TStop: 1e-4, Ctx: ctx},
		objs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	dir := t.TempDir()
	opt := SimOptions{TStep: 2e-6, TStop: 1e-4, Journal: filepath.Join(dir, "ref.journal")}
	ref, err := Simulate(ckt, opt, objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel mid-forward via the user AfterStep hook (which the journal
	// chains after), then resume to completion.
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	copt := opt
	copt.Ctx = cctx
	copt.Journal = filepath.Join(dir, "canceled.journal")
	copt.Transient.AfterStep = func(step int, _, _, _ float64, _ int, _ []float64) error {
		if step == 10 {
			ccancel()
		}
		return nil
	}
	if _, err := Simulate(ckt, copt, objs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	run, err := Resume(ckt, copt.Journal, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resume after cancel", run.Sens.DOdp, ref.Sens.DOdp)
}

// openDescriptors counts this process's open file descriptors, or -1 where
// /proc does not say.
func openDescriptors() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestUnbuildableStoreLeavesJournal: a request whose store cannot be built —
// an unknown strategy, a spill directory that does not exist — fails before
// it touches the journal at its path. It used to truncate the journal of an
// earlier good run to a bare config record (Simulate creates the journal
// with O_TRUNC before the store) and leak the descriptor it had just opened,
// as did a Resume whose spill directory had gone.
func TestUnbuildableStoreLeavesJournal(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	opt := SimOptions{TStep: 2e-6, TStop: 2e-4, Storage: StorageMemory, Journal: path}
	good, err := Simulate(ckt, opt, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string, fds int) {
		t.Helper()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: journal went from %d to %d bytes", what, len(before), len(after))
		}
		if now := openDescriptors(); now != fds {
			t.Fatalf("%s: %d descriptors open, %d before the call", what, now, fds)
		}
	}
	for what, bad := range map[string]SimOptions{
		"unknown strategy": {Storage: "bogus"},
		"no spill dir":     {Storage: StorageDisk, DiskDir: filepath.Join(dir, "nonexistent")},
	} {
		bad.TStep, bad.TStop, bad.Journal = opt.TStep, opt.TStop, path
		fds := openDescriptors()
		if _, err := Simulate(ckt, bad, []Objective{obj}, nil); err == nil {
			t.Fatalf("%s: Simulate succeeded", what)
		}
		unchanged(what, fds)
	}
	resumed, err := Resume(ckt, path, SimOptions{})
	if err != nil {
		t.Fatalf("the earlier journal no longer resumes: %v", err)
	}
	sameBits(t, "resumed", resumed.Sens.DOdp, good.Sens.DOdp)

	// The same early return under Resume: a disk-store run cut mid-forward,
	// resumed after its spill directory is gone.
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	opt.Storage, opt.DiskDir = StorageDisk, spill
	if _, err := Simulate(ckt, opt, []Objective{obj}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalFrameEnds(t, data)
	before = data[:ends[len(ends)/3]]
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(spill); err != nil {
		t.Fatal(err)
	}
	fds := openDescriptors()
	if _, err := Resume(ckt, path, SimOptions{}); err == nil {
		t.Fatal("Resume without its spill directory succeeded")
	}
	unchanged("resume without spill dir", fds)
}
