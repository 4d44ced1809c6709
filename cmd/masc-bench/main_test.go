package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sectionsOf is the set of manifest sections an -experiment name writes.
func sectionsOf(exp string) []string {
	switch exp {
	case "all":
		return []string{"table1", "fig1", "table2", "table3", "fig5b", "fig6", "fig7", "parallel", "ablation"}
	case "fig5b", "fig6":
		return []string{"fig5b", "fig6"}
	}
	return []string{exp}
}

// TestEveryExperimentRuns runs every name the -experiment usage string lists
// at a tiny scale and checks that the manifest holds exactly that
// experiment's sections. The experiments self-verify, so a clean run is
// also their bit-identity and round-trip check.
func TestEveryExperimentRuns(t *testing.T) {
	for _, exp := range strings.Split(experiments, "|") {
		t.Run(exp, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "stats.json")
			if err := run(exp, 0.02, 2, 0, path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var man struct {
				Sections map[string]json.RawMessage `json:"sections"`
			}
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			var got []string
			for name := range man.Sections {
				got = append(got, name)
			}
			want := sectionsOf(exp)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("sections %v, want %v", got, want)
			}
		})
	}
}

// TestRetiredExperimentsFail pins the experiments the benchmark measures
// instead: each name is refused, not silently run as something else.
func TestRetiredExperimentsFail(t *testing.T) {
	for _, exp := range []string{"pipeline", "adjoint", "windows", "budget", "memory", "journal", "codec"} {
		err := run(exp, 0.02, 2, 0, "")
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: err = %v, want unknown experiment", exp, err)
		}
	}
}
