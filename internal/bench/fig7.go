package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"masc"
	"masc/internal/adjoint"
	"masc/internal/transient"
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

// RunFig7 reproduces the end-to-end experiment: the product's strategies are
// timed as masc.Simulate runs them, the Xyce-style baseline as a transient
// run and one recompute sweep per objective. Sensitivities from all four are
// verified bit-identical before times are reported.
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

		// The paper's Xyce-style baseline: one Jacobian-recomputing sweep per
		// objective.
		start := time.Now()
		tr, err := transient.Run(ds.Ckt, ds.Tran)
		if err != nil {
			return nil, fmt.Errorf("bench fig7 %s xyce-naive: %w", name, err)
		}
		ref, err := adjoint.XyceNaiveSensitivities(ds.Ckt, tr, ds.Objectives, adjoint.Options{Params: ds.Params})
		if err != nil {
			return nil, fmt.Errorf("bench fig7 %s xyce-naive: %w", name, err)
		}
		row.RecomputeSec = time.Since(start).Seconds()

		// The product's three strategies, each a whole masc.Simulate run:
		// recompute in one sweep for every objective, raw tensors on the
		// throttled disk, and the MASC-compressed chain in memory.
		for _, v := range []struct {
			storage masc.Storage
			sec     *float64
		}{
			{masc.StorageRecompute, &row.BatchedSec},
			{masc.StorageDisk, &row.DiskSec},
			{masc.StorageMASC, &row.MascSec},
		} {
			start := time.Now()
			run, err := masc.Simulate(ds.Ckt, masc.SimOptions{Transient: ds.Tran, Storage: v.storage, DiskBytesPerSec: diskBps},
				ds.Objectives, ds.Params)
			if err != nil {
				return nil, fmt.Errorf("bench fig7 %s %s: %w", name, v.storage, err)
			}
			*v.sec = time.Since(start).Seconds()
			if err := compareSens(ref, run.Sens); err != nil {
				return nil, fmt.Errorf("bench fig7 %s %s: %w", name, v.storage, err)
			}
			if v.storage == masc.StorageMASC {
				row.MascCR = float64(run.TensorStats.RawBytes) / float64(run.TensorStats.StoredBytes)
			}
		}

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
