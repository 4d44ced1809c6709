package main

import (
	"io"
	"os"
	"strings"
	"testing"
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
// masc or masc+markov run with no budget. Under -mem-budget Async is inert
// (the tiered store compresses inside Put), so the line would report a
// pipeline that does not exist.
func TestPipelineLineOnlyWhereAsyncRuns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		storage string
		async   bool
		budget  int64
		want    bool
	}{
		{"masc-async", "masc", true, 0, true},
		{"markov-async", "masc+markov", true, 0, true},
		{"masc-async-budget", "masc", true, 4 << 10, false},
		{"markov-async-budget", "masc+markov", true, 8 << 10, false},
		{"masc-sync", "masc", false, 0, false},
		{"memory-async", "memory", true, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runOutput(t, cli{path: lowpass, storage: tc.storage, async: tc.async,
				memBudgetBytes: tc.budget, workers: 1, adjWorkers: 1, depth: 2, top: 1})
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

// TestRetiredStorageNameFails: "auto" is not a storage; the run fails by that
// name instead of picking a codec.
func TestRetiredStorageNameFails(t *testing.T) {
	out, err := runOutput(t, cli{path: lowpass, storage: "auto", workers: 1, adjWorkers: 1, depth: 2, top: 1})
	if err == nil || !strings.Contains(err.Error(), `"auto"`) {
		t.Fatalf("storage %q: %v, want an error naming it", "auto", err)
	}
	if strings.Contains(out, "dO/d(") {
		t.Fatalf("storage %q printed sensitivities:\n%s", "auto", out)
	}
}
