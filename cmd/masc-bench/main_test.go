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

// readManifest decodes the sections of a -stats-json document.
func readManifest(t *testing.T, path string) (man struct {
	Sections map[string]json.RawMessage `json:"sections"`
}) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestEveryExperimentRuns runs every name the -experiment usage string lists
// at a tiny scale and checks that the manifest holds exactly that
// experiment's sections. The experiments self-verify, so a clean run is
// also their bit-identity and round-trip check.
func TestEveryExperimentRuns(t *testing.T) {
	for _, exp := range strings.Split(experiments, "|") {
		t.Run(exp, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "stats.json")
			if err := run(exp, nil, nil, 0.02, 2, 0, path); err != nil {
				t.Fatal(err)
			}
			man := readManifest(t, path)
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
		err := run(exp, nil, nil, 0.02, 2, 0, "")
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: err = %v, want unknown experiment", exp, err)
		}
	}
}

// TestOneDatasetTable3: -datasets and -codecs narrow Table 3 to one row of
// the named codecs, each measured once.
func TestOneDatasetTable3(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := run("table3", []string{"add20"}, []string{"masc", "gzip"}, 0.02, 1, 0, path); err != nil {
		t.Fatal(err)
	}
	var cells []struct{ Dataset, Codec string }
	if err := json.Unmarshal(readManifest(t, path).Sections["table3"], &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Dataset != "add20" || cells[1].Dataset != "add20" ||
		cells[0].Codec != "masc" || cells[1].Codec != "gzip" {
		t.Fatalf("table3 cells %+v, want add20 masc and add20 gzip", cells)
	}
}

// TestUnknownNamesFailFirst: an unknown dataset or codec is refused before
// any experiment starts, even where a valid name comes first or the codec
// would be reached only after other experiments ran.
func TestUnknownNamesFailFirst(t *testing.T) {
	for _, tc := range []struct {
		names, codecs []string
		want          string
	}{
		{[]string{"add20", "nope"}, nil, `unknown dataset "nope"`},
		{nil, []string{"masc", "nope"}, `unknown codec "nope"`},
	} {
		stdout := os.Stdout
		f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = f
		err = run("all", tc.names, tc.codecs, 0.02, 1, 0, "")
		os.Stdout = stdout
		f.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v %v: err = %v, want %s", tc.names, tc.codecs, err, tc.want)
		}
		if out, _ := os.ReadFile(f.Name()); len(out) > 0 {
			t.Errorf("%v %v: an experiment started before the name was refused:\n%s", tc.names, tc.codecs, out)
		}
	}
}
