package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
)

// Provenance identifies the build and runtime that produced a manifest, so
// baselines recorded on one machine can be compared honestly against runs
// from another: a bench regression means little without knowing the commit,
// toolchain, core count and GC behavior behind each side.
type Provenance struct {
	GitCommit  string `json:"git_commit,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Runtime snapshot (refreshed when the manifest is written, so the
	// numbers reflect the run, not process startup).
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseTotalSec   float64 `json:"gc_pause_total_sec"`
	GCCPUSec          float64 `json:"gc_cpu_sec"`
	HeapObjectBytes   uint64  `json:"heap_object_bytes"`
	RuntimeTotalBytes uint64  `json:"runtime_total_bytes"`
	// StoreOffheapBytes is the process-wide peak of bytes the Jacobian
	// stores held outside the Go heap (the compressed store's blob arena):
	// memory RuntimeTotalBytes cannot see. PeakRSSBytes is getrusage's
	// ru_maxrss, 0 where unavailable — what the machine actually held, next
	// to what the store models (TensorStats.PeakResident) and what the Go
	// runtime accounts for.
	StoreOffheapBytes uint64 `json:"store_offheap_bytes"`
	PeakRSSBytes      uint64 `json:"peak_rss_bytes"`
}

// offHeap is the process-wide count of bytes held outside the Go heap, and
// its high-water mark. Process-wide like every other Provenance figure: the
// manifest describes the process, whichever stores ran in it.
var offHeap, offHeapPeak atomic.Int64

// NoteOffHeap records delta bytes written to (positive) or released from
// (negative) memory outside the Go heap.
func NoteOffHeap(delta int64) {
	cur := offHeap.Add(delta)
	for {
		peak := offHeapPeak.Load()
		if cur <= peak || offHeapPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// CollectProvenance gathers build identity (via debug.ReadBuildInfo's
// embedded VCS stamps — no git exec) plus a runtime/metrics snapshot.
func CollectProvenance() Provenance {
	p := Provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitCommit = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	p.refreshRuntime()
	return p
}

// refreshRuntime re-reads the GC/heap counters.
func (p *Provenance) refreshRuntime() {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		p.GCCycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		p.GCCPUSec = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		p.HeapObjectBytes = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindUint64 {
		p.RuntimeTotalBytes = samples[3].Value.Uint64()
	}
	// Total STW pause time comes from MemStats; runtime/metrics exposes
	// pauses only as a distribution.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.GCPauseTotalSec = float64(ms.PauseTotalNs) / 1e9
	p.StoreOffheapBytes = uint64(offHeapPeak.Load())
	p.PeakRSSBytes = peakRSSBytes()
}
