package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// Fig7Row is one dataset's end-to-end comparison (Figure 7): total
// sensitivity-simulation time (forward + reverse) under the three Jacobian
// strategies the paper compares, and under the recomputation this product
// runs for StorageRecompute.
type Fig7Row struct {
	Dataset      string
	RecomputeSec float64 // Xyce-style: one Jacobian-recomputing sweep per objective (the paper's baseline)
	BatchedSec   float64 // StorageRecompute: one sweep for every objective, Jacobians re-evaluated in it
	DiskSec      float64 // store raw tensors on the (throttled) disk
	MascSec      float64 // MASC in-memory compression
	MascCR       float64
	// Speedups of MASC over the three baselines: below 1 where MASC is slower.
	VsRecompute float64
	VsBatched   float64
	VsDisk      float64
}

// DefaultDiskBps is the paper's measurement SSD bandwidth (~0.5 GB/s).
const DefaultDiskBps = 0.5e9

// RunFig7 reproduces the end-to-end experiment. Sensitivities from all four
// strategies are verified bit-identical before times are reported.
func RunFig7(names []string, scale, diskBps float64) ([]Fig7Row, error) {
	if names == nil {
		names = []string{"add20", "smult20", "mem_plus"}
	}
	if diskBps == 0 {
		diskBps = DefaultDiskBps
	}
	rows := make([]Fig7Row, 0, len(names))
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Dataset: name}
		var ref *adjoint.Result

		// runVariant times one strategy: a store, or with none the Xyce-style
		// flow — one Jacobian-recomputing sweep per objective — or, batched,
		// the product's, whose one sweep re-evaluates each step's pair once
		// for every objective.
		runVariant := func(store jactensor.Store, batched bool) (float64, *adjoint.Result, jactensor.Stats, error) {
			start := time.Now()
			tr, err := ds.RunForward(store)
			if err != nil {
				return 0, nil, jactensor.Stats{}, err
			}
			var sens *adjoint.Result
			switch {
			case store != nil:
				sens, err = adjoint.Sensitivities(ds.Ckt, tr, store, ds.Objectives,
					adjoint.Options{Params: ds.Params, StoredGC: true})
			case batched:
				sens, err = adjoint.Sensitivities(ds.Ckt, tr, adjoint.NewRecomputeSource(ds.Ckt, tr).Pairs(), ds.Objectives,
					adjoint.Options{Params: ds.Params, StoredGC: true})
			default:
				sens, err = adjoint.XyceNaiveSensitivities(ds.Ckt, tr, ds.Objectives,
					adjoint.Options{Params: ds.Params})
			}
			if err != nil {
				return 0, nil, jactensor.Stats{}, err
			}
			total := time.Since(start).Seconds()
			var st jactensor.Stats
			if store != nil {
				st = store.Stats()
			}
			return total, sens, st, nil
		}

		// Xyce-style recomputation.
		sec, sens, _, err := runVariant(nil, false)
		if err != nil {
			return nil, fmt.Errorf("bench fig7 %s recompute: %w", name, err)
		}
		row.RecomputeSec = sec
		ref = sens

		// The product's recomputation.
		sec, sens, _, err = runVariant(nil, true)
		if err != nil {
			return nil, fmt.Errorf("bench fig7 %s batched recompute: %w", name, err)
		}
		if err := compareSens(ref, sens); err != nil {
			return nil, fmt.Errorf("bench fig7 %s batched recompute: %w", name, err)
		}
		row.BatchedSec = sec

		// Raw tensors on throttled disk.
		disk, err := jactensor.NewDiskStore("", diskBps)
		if err != nil {
			return nil, err
		}
		sec, sens, _, err = runVariant(disk, false)
		if err != nil {
			return nil, fmt.Errorf("bench fig7 %s disk: %w", name, err)
		}
		if err := compareSens(ref, sens); err != nil {
			return nil, fmt.Errorf("bench fig7 %s disk: %w", name, err)
		}
		row.DiskSec = sec
		if err := disk.Close(); err != nil {
			return nil, err
		}

		// MASC in-memory compression: the Markov coder on one chunk, what
		// -storage masc codes.
		opt := masczip.Options{Markov: true}
		cs := jactensor.NewCompressedStore(
			masczip.New(ds.Ckt.GPat, opt),
			masczip.New(ds.Ckt.CPat, opt),
			ds.Ckt.GPat, ds.Ckt.CPat)
		var st jactensor.Stats
		sec, sens, st, err = runVariant(cs, false)
		if err != nil {
			return nil, fmt.Errorf("bench fig7 %s masc: %w", name, err)
		}
		if err := compareSens(ref, sens); err != nil {
			return nil, fmt.Errorf("bench fig7 %s masc: %w", name, err)
		}
		row.MascSec = sec
		row.MascCR = float64(st.RawBytes) / float64(st.StoredBytes)

		row.VsRecompute = row.RecomputeSec / row.MascSec
		row.VsBatched = row.BatchedSec / row.MascSec
		row.VsDisk = row.DiskSec / row.MascSec
		rows = append(rows, row)
	}
	return rows, nil
}

// compareSens checks that a stored strategy's sensitivities are bit-identical
// to the recompute baseline's — the end-to-end losslessness claim of the
// paper.
func compareSens(recompute, got *adjoint.Result) error {
	for o := range recompute.DOdp {
		for k := range recompute.DOdp[o] {
			x, y := recompute.DOdp[o][k], got.DOdp[o][k]
			if math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("sensitivity obj %d param %d is %g, the recompute baseline's is %g: not bit-identical", o, k, y, x)
			}
		}
	}
	return nil
}

// FormatFig7 renders the end-to-end comparison: Recompute is the paper's
// Xyce-style baseline, Batched the product's StorageRecompute.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %10s %8s %13s %10s %10s\n",
		"Dataset", "Recompute(s)", "Batched(s)", "Disk(s)", "MASC(s)", "CR", "vsRecompute", "vsBatched", "vsDisk")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.3f %10.3f %10.3f %10.3f %8.2f %12.2fx %9.2fx %9.2fx\n",
			r.Dataset, r.RecomputeSec, r.BatchedSec, r.DiskSec, r.MascSec, r.MascCR, r.VsRecompute, r.VsBatched, r.VsDisk)
	}
	return b.String()
}

// ParallelRow is one point of the §6.4 thread-scaling study.
type ParallelRow struct {
	Workers        int
	CompressMBps   float64
	DecompressMBps float64
	Speedup        float64 // compress throughput vs 1 worker
}

// RunParallel measures MASC compression throughput versus worker count on
// one dataset's tensor.
func RunParallel(name string, scale float64, workerList []int) ([]ParallelRow, error) {
	if name == "" {
		name = "MOS_T10"
	}
	if workerList == nil {
		workerList = []int{1, 2, 4, 8, 16, 32}
	}
	ds, err := workload.Build(name, scale)
	if err != nil {
		return nil, err
	}
	tn, err := CaptureTensor(ds)
	if err != nil {
		return nil, err
	}
	rows := make([]ParallelRow, 0, len(workerList))
	var serial float64
	for _, w := range workerList {
		pair, err := NewCodecPair("masc", tn, w, false)
		if err != nil {
			return nil, err
		}
		r, err := MeasureCodec(pair, tn)
		if err != nil {
			return nil, err
		}
		if serial == 0 {
			serial = r.CompressMBps
		}
		rows = append(rows, ParallelRow{
			Workers:        w,
			CompressMBps:   r.CompressMBps,
			DecompressMBps: r.DecompressMBps,
			Speedup:        r.CompressMBps / serial,
		})
	}
	return rows, nil
}

// FormatParallel renders the thread-scaling study. The host CPU count is
// printed because the curve is meaningless beyond it: on a single-core
// host the study measures only chunking overhead.
func FormatParallel(rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(host has %d CPU(s) — speedup saturates there)\n", runtime.NumCPU())
	fmt.Fprintf(&b, "%8s %14s %16s %9s\n", "Workers", "Comp MB/s", "Decomp MB/s", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14.1f %16.1f %8.2fx\n",
			r.Workers, r.CompressMBps, r.DecompressMBps, r.Speedup)
	}
	return b.String()
}
