package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// PipelineRow is one dataset's sync-vs-async comparison of the MASC
// compressed store: the forward phase (where Put-side compression either
// blocks the solver or overlaps with it) and the reverse phase (where the
// async store prefetches the next step during each adjoint solve).
type PipelineRow struct {
	Dataset     string
	SyncFwdSec  float64
	AsyncFwdSec float64
	SyncRevSec  float64
	AsyncRevSec float64
	// StallSec is the async run's residual Put blocking: compression cost
	// the pipeline failed to hide behind the solve.
	StallSec float64
	// FwdSpeedup is sync/async forward time.
	FwdSpeedup float64
}

// RunPipeline measures the pipelined (async) compressed store against the
// synchronous one on end-to-end sensitivity runs. Both variants must
// produce identical stored bytes and matching sensitivities — the
// pipeline changes scheduling, never results.
func RunPipeline(names []string, scale float64, workers, depth int) ([]PipelineRow, error) {
	if names == nil {
		names = []string{"add20", "smult20", "mem_plus"}
	}
	rows := make([]PipelineRow, 0, len(names))
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}

		runVariant := func(async bool) (fwd, rev float64, sens *adjoint.Result, st jactensor.Stats, err error) {
			opt := masczip.Options{Markov: true, Workers: workers}
			gc, cc := masczip.New(ds.Ckt.GPat, opt), masczip.New(ds.Ckt.CPat, opt)
			var store jactensor.Store
			if async {
				store = jactensor.NewCompressedStoreAsync(gc, cc, ds.Ckt.GPat, ds.Ckt.CPat, depth)
			} else {
				store = jactensor.NewCompressedStore(gc, cc, ds.Ckt.GPat, ds.Ckt.CPat)
			}
			defer store.Close()
			start := time.Now()
			tr, err := ds.RunForward(store) // includes EndForward (the drain)
			if err != nil {
				return 0, 0, nil, jactensor.Stats{}, err
			}
			fwd = time.Since(start).Seconds()
			start = time.Now()
			sens, err = adjoint.Sensitivities(ds.Ckt, tr, store, ds.Objectives,
				adjoint.Options{Params: ds.Params, StoredGC: true})
			if err != nil {
				return 0, 0, nil, jactensor.Stats{}, err
			}
			rev = time.Since(start).Seconds()
			return fwd, rev, sens, store.Stats(), nil
		}

		sf, sr, sSens, sSt, err := runVariant(false)
		if err != nil {
			return nil, fmt.Errorf("bench pipeline %s sync: %w", name, err)
		}
		af, ar, aSens, aSt, err := runVariant(true)
		if err != nil {
			return nil, fmt.Errorf("bench pipeline %s async: %w", name, err)
		}
		if err := compareSens(sSens, aSens); err != nil {
			return nil, fmt.Errorf("bench pipeline %s: %w", name, err)
		}
		if sSt.StoredBytes != aSt.StoredBytes {
			return nil, fmt.Errorf("bench pipeline %s: stored bytes diverge sync=%d async=%d",
				name, sSt.StoredBytes, aSt.StoredBytes)
		}
		rows = append(rows, PipelineRow{
			Dataset:     name,
			SyncFwdSec:  sf,
			AsyncFwdSec: af,
			SyncRevSec:  sr,
			AsyncRevSec: ar,
			StallSec:    aSt.StallTime.Seconds(),
			FwdSpeedup:  sf / af,
		})
	}
	return rows, nil
}

// FormatPipeline renders the overlap study. The host CPU count matters:
// on a single-core host the solver and the background compressor
// timeshare one CPU, so the async mode can only reorder work, not
// overlap it — expect speedups near 1.0 there.
func FormatPipeline(rows []PipelineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(host has %d CPU(s) — overlap needs a spare core)\n", runtime.NumCPU())
	fmt.Fprintf(&b, "%-10s %11s %12s %11s %12s %10s %9s\n",
		"Dataset", "SyncFwd(s)", "AsyncFwd(s)", "SyncRev(s)", "AsyncRev(s)", "Stall(s)", "FwdSpeed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %11.3f %12.3f %11.3f %12.3f %10.3f %8.2fx\n",
			r.Dataset, r.SyncFwdSec, r.AsyncFwdSec, r.SyncRevSec, r.AsyncRevSec,
			r.StallSec, r.FwdSpeedup)
	}
	return b.String()
}
