package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"masc"
)

const lowpass = "../../examples/lowpass.sp"

// runOutput runs the command with c and returns what it printed and the error
// it returned.
func runOutput(t *testing.T, c cli) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(c)
	os.Stdout = stdout
	w.Close()
	return <-out, err
}

// TestPipelineLineOnlyWhereAsyncRuns: the CLI reports compression moved off
// the solver thread only for a compressed store that has a worker — an -async
// masc run, with or without a budget (a budget keeps the chain and its
// worker), or an -async memory run a budget makes the chain.
func TestPipelineLineOnlyWhereAsyncRuns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		storage string
		async   bool
		budget  int64
		want    bool
	}{
		{"masc-async", "masc", true, 0, true},
		{"masc-async-budget", "masc", true, 8 << 10, true},
		{"masc-sync", "masc", false, 0, false},
		{"masc-sync-budget", "masc", false, 8 << 10, false},
		{"memory-async", "memory", true, 0, false},
		{"memory-async-budget", "memory", true, 8 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runOutput(t, cli{path: lowpass, storage: tc.storage, async: tc.async,
				memBudgetBytes: tc.budget, adjWorkers: 1, top: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tiers := strings.Contains(out, "\ntiers: budget "); tiers != (tc.budget > 0) {
				t.Fatalf("tiers line printed: %v, budget %d B\n%s", tiers, tc.budget, out)
			}
			if got := strings.Contains(out, "\npipeline: "); got != tc.want {
				t.Fatalf("pipeline line printed: %v, want %v\n%s", got, tc.want, out)
			}
		})
	}
}

// TestRetiredStorageNameFails: "auto" and "masc+markov" are not storages
// (masc codes with the Markov selector); the run fails by the name instead of
// picking a codec.
func TestRetiredStorageNameFails(t *testing.T) {
	for _, name := range []string{"auto", "masc+markov"} {
		t.Run(name, func(t *testing.T) {
			out, err := runOutput(t, cli{path: lowpass, storage: name, adjWorkers: 1, top: 1})
			if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
				t.Fatalf("storage %q: %v, want an error naming it", name, err)
			}
			if strings.Contains(out, "dO/d(") {
				t.Fatalf("storage %q printed sensitivities:\n%s", name, out)
			}
		})
	}
}

// TestResumedManifestRecordsOnlyWhatTheRunReports: under -resume the journal
// fixes the run's shape, so the manifest must not echo the command line's
// shape flags; it records that the run resumed and what the run reports.
func TestResumedManifestRecordsOnlyWhatTheRunReports(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.wal")
	config := func(path string) map[string]any {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man struct{ Config map[string]any }
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		return man.Config
	}
	shape := []string{"adjoint_workers", "async", "disk_bps", "mem_budget_bytes", "tstep", "tstop"}

	first := filepath.Join(dir, "first.json")
	if _, err := runOutput(t, cli{path: lowpass, storage: "masc", adjWorkers: 1,
		top: 1, journal: journal, maniPath: first}); err != nil {
		t.Fatal(err)
	}
	want := config(first)
	for _, k := range shape {
		if _, ok := want[k]; !ok {
			t.Fatalf("the journaled run's manifest lacks %q: %v", k, want)
		}
	}
	// A torn tail: the resumed run re-enters the forward phase.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := filepath.Join(dir, "resumed.json")
	if _, err := runOutput(t, cli{path: lowpass, storage: "memory", adjWorkers: 2,
		async: true, diskBps: 1e6, memBudgetBytes: 1 << 20, top: 1,
		journal: journal, resume: true, maniPath: resumed}); err != nil {
		t.Fatal(err)
	}
	got := config(resumed)
	for _, k := range shape {
		if v, ok := got[k]; ok {
			t.Errorf("the resumed manifest echoes the command line's %s = %v", k, v)
		}
	}
	if got["resumed"] != true || got["storage"] != "masc" {
		t.Errorf("resumed manifest: resumed %v, storage %v; want true, masc", got["resumed"], got["storage"])
	}
}

// manifestStatus reads the status a run manifest records.
func manifestStatus(t *testing.T, path string) any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no manifest: %v", err)
	}
	var man struct{ Config map[string]any }
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man.Config["status"]
}

// TestDeadlineWritesInterruptedManifest: a run its -deadline stops fails, and
// its manifest records the interruption.
func TestDeadlineWritesInterruptedManifest(t *testing.T) {
	mani := filepath.Join(t.TempDir(), "m.json")
	_, err := runOutput(t, cli{path: lowpass, storage: "masc", adjWorkers: 1, top: 1,
		deadline: time.Nanosecond, maniPath: mani})
	if err == nil {
		t.Fatal("a run past its deadline succeeded")
	}
	if st := manifestStatus(t, mani); st != "interrupted" {
		t.Fatalf("manifest status %v, want interrupted", st)
	}
}

// TestDeadlineInReverseSweepWritesInterruptedManifest: a -deadline that
// expires in the reverse sweep fails the run with the deadline's error — but
// not masc.ErrInterrupted, which only the forward loop returns — and the
// manifest still records the interruption. A throttled disk store stretches
// both phases to a similar length; the deadline grows until one lands in the
// sweep.
func TestDeadlineInReverseSweepWritesInterruptedManifest(t *testing.T) {
	mani := filepath.Join(t.TempDir(), "m.json")
	for d := 20 * time.Millisecond; d < 10*time.Second; d = d * 5 / 4 {
		_, err := runOutput(t, cli{path: lowpass, storage: "disk", diskBps: 4e5, adjWorkers: 2,
			top: 1, deadline: d, maniPath: mani})
		switch {
		case err == nil:
			t.Fatalf("no deadline landed in the reverse sweep: %v stopped the forward loop, %v let the run finish", d*4/5, d)
		case errors.Is(err, masc.ErrInterrupted):
			continue // still in the forward loop
		case !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("deadline %v: %v, want context.DeadlineExceeded", d, err)
		}
		if st := manifestStatus(t, mani); st != "interrupted" {
			t.Fatalf("deadline %v in the reverse sweep: manifest status %v, want interrupted", d, st)
		}
		return
	}
	t.Fatal("every deadline up to 10s stopped the forward loop")
}
