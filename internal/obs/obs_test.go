package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.SpanRecorder() != nil {
		t.Fatal("nil observer must expose nil sinks")
	}
	o2 := &Observer{}
	if o2.Registry() != nil || o2.SpanRecorder() != nil {
		t.Fatal("empty observer must expose nil sinks")
	}
	o3 := &Observer{Reg: NewRegistry()}
	if o3.Registry() == nil {
		t.Fatal("observer dropped its registry")
	}
}

func TestManifestWrite(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("steps_total", "").Add(42)

	path := filepath.Join(t.TempDir(), "run.json")
	man := NewManifest("masc-test")
	man.Set("storage", "masc").Set("workers", 4)
	man.Section("tensor", map[string]int64{"RawBytes": 1000, "StoredBytes": 250})
	man.AttachMetrics(reg)
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tool     string         `json:"tool"`
		Config   map[string]any `json:"config"`
		Sections map[string]any `json:"sections"`
		Metrics  map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if doc.Tool != "masc-test" {
		t.Fatalf("tool = %q", doc.Tool)
	}
	if doc.Config["storage"] != "masc" || doc.Config["workers"] != 4.0 {
		t.Fatalf("config = %v", doc.Config)
	}
	tensor := doc.Sections["tensor"].(map[string]any)
	if tensor["RawBytes"] != 1000.0 || tensor["StoredBytes"] != 250.0 {
		t.Fatalf("tensor section = %v", tensor)
	}
	if doc.Metrics["steps_total"].(map[string]any)[""] != 42.0 {
		t.Fatalf("metrics snapshot = %v", doc.Metrics)
	}
}

// TestManifestMemoryProvenance: the manifest written after a run carries
// the off-heap high-water mark (not the current value, which is back to zero
// once the store has closed) and the process's real peak RSS beside the Go
// heap figures.
func TestManifestMemoryProvenance(t *testing.T) {
	man := NewManifest("masc-test")
	want := uint64(offHeap.Load() + 12<<20)
	NoteOffHeap(8 << 20)
	NoteOffHeap(4 << 20)
	NoteOffHeap(-12 << 20) // store closed before the manifest is written
	path := filepath.Join(t.TempDir(), "run.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	p := got.Provenance
	if p.StoreOffheapBytes < want {
		t.Fatalf("store_offheap_bytes = %d, want at least the %d B peak", p.StoreOffheapBytes, want)
	}
	if runtime.GOOS == "linux" {
		if p.PeakRSSBytes < p.HeapObjectBytes || p.PeakRSSBytes > 1<<40 {
			t.Fatalf("peak_rss_bytes = %d beside %d B of heap objects", p.PeakRSSBytes, p.HeapObjectBytes)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"store_offheap_bytes"`, `"peak_rss_bytes"`, `"heap_object_bytes"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("manifest lacks %s", key)
		}
	}
}

func TestReadManifestRejectsTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	man := NewManifest("masc-test")
	man.Set("storage", "masc")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil || got.Tool != "masc-test" {
		t.Fatalf("round-trip: %v, %+v", err, got)
	}
	// The atomic writer must leave no temp files behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("manifest dir has %d entries, want 1", len(ents))
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn manifest — cut anywhere strictly inside the document — must be
	// rejected, not decoded into zeroed stats.
	for _, cut := range []int{1, len(raw) / 4, len(raw) / 2, len(raw) - 3} {
		torn := filepath.Join(dir, "torn.json")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(torn); err == nil {
			t.Fatalf("torn manifest (cut %d) accepted", cut)
		}
	}
	// So must trailing garbage after the document.
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, append(append([]byte(nil), raw...), []byte("{}")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(junk); err == nil {
		t.Fatal("manifest with trailing garbage accepted")
	}
}
