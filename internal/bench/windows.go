package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// WindowsRow is one (dataset, window count) measurement of the
// parallel-in-time windowed reverse sweep over an anchored compressed
// store. Speedup is vs the serial (one-window) sweep over the same store;
// MaxWindowSec/MinWindowSec expose the per-window wall-clock imbalance
// (the seeding sweep counts as the topmost window); AnchorBytes is the
// extra resident plaintext the forward pass retained to make the window
// boundaries self-contained.
type WindowsRow struct {
	Dataset      string
	Unknowns     int
	Steps        int
	Objs         int
	Params       int
	Windows      int
	Sec          float64
	Speedup      float64
	MaxWindowSec float64
	MinWindowSec float64
	AnchorBytes  int64
}

// RunWindows measures the windowed adjoint engine: for each dataset it
// captures one forward trajectory into an anchored compressed store
// (anchors spaced for the widest window count), then sweeps it serially
// and at every requested window count. Window sweeps read through store
// slices, so the same captured tensor serves every configuration; every
// configuration's sensitivities are checked BIT-IDENTICAL to the serial
// baseline.
func RunWindows(names []string, scale float64, windowsList []int) ([]WindowsRow, error) {
	if names == nil {
		names = []string{"add20", "CHIP_08"}
	}
	if windowsList == nil {
		windowsList = []int{2, 4, runtime.NumCPU()}
	}
	// Dedupe and keep W >= 2; the serial baseline is implicit.
	seen := map[int]bool{}
	var ws []int
	for _, w := range windowsList {
		if w >= 2 && !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	sort.Ints(ws)
	if len(ws) == 0 {
		return nil, fmt.Errorf("bench windows: no window count >= 2 requested")
	}
	maxW := ws[len(ws)-1]

	var rows []WindowsRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		cs := jactensor.NewCompressedStore(
			masczip.New(ds.Ckt.GPat, masczip.Options{}), masczip.New(ds.Ckt.CPat, masczip.Options{}),
			ds.Ckt.GPat, ds.Ckt.CPat)
		every := ds.Tran.EstimatedSteps() / maxW
		if every < 1 {
			every = 1
		}
		cs.SetAnchorEvery(every)
		tr, err := ds.RunForward(cs)
		if err != nil {
			return nil, err
		}
		n := tr.Steps()

		// Best-of-3 per configuration. The serial baseline reads through a
		// full-range slice — same decode path, and it leaves the parent
		// store intact for the next repetition.
		sweep := func(W int) (*adjoint.Result, float64, error) {
			var best float64
			var res *adjoint.Result
			for rep := 0; rep < 3; rep++ {
				var src adjoint.JacobianSource
				if W <= 1 {
					sl, err := cs.Slice(0, n)
					if err != nil {
						return nil, 0, err
					}
					src = sl
				} else {
					src = cs
				}
				start := time.Now()
				r, err := adjoint.Sensitivities(ds.Ckt, tr, src, ds.Objectives,
					adjoint.Options{Params: ds.Params, StoredGC: true, Windows: W})
				if err != nil {
					return nil, 0, err
				}
				if W > 1 && r.Windows < 2 {
					return nil, 0, fmt.Errorf("windows=%d fell back to serial (no usable boundaries)", W)
				}
				if sec := time.Since(start).Seconds(); rep == 0 || sec < best {
					best, res = sec, r
				}
			}
			return res, best, nil
		}

		base, baseSec, err := sweep(1)
		if err != nil {
			return nil, fmt.Errorf("bench windows %s baseline: %w", name, err)
		}
		anchorBytes := cs.Stats().AnchorBytes
		row := func(W int, sec float64, r *adjoint.Result) WindowsRow {
			out := WindowsRow{
				Dataset: name, Unknowns: ds.Ckt.N, Steps: n,
				Objs: len(ds.Objectives), Params: len(ds.Params),
				Windows: W, Sec: sec, Speedup: baseSec / sec,
				AnchorBytes: anchorBytes,
			}
			for i, s := range r.WindowSweepSec {
				if i == 0 || s > out.MaxWindowSec {
					out.MaxWindowSec = s
				}
				if i == 0 || s < out.MinWindowSec {
					out.MinWindowSec = s
				}
			}
			return out
		}
		rows = append(rows, row(1, baseSec, base))

		for _, W := range ws {
			res, sec, err := sweep(W)
			if err != nil {
				return nil, fmt.Errorf("bench windows %s W=%d: %w", name, W, err)
			}
			for o := range base.DOdp {
				for k := range base.DOdp[o] {
					if math.Float64bits(base.DOdp[o][k]) != math.Float64bits(res.DOdp[o][k]) {
						return nil, fmt.Errorf("bench windows %s W=%d: obj %d param %d diverges: %g vs %g",
							name, W, o, k, res.DOdp[o][k], base.DOdp[o][k])
					}
				}
			}
			rows = append(rows, row(res.Windows, sec, res))
		}
		cs.Close()
	}
	return rows, nil
}

// FormatWindows renders the parallel-in-time scaling study.
func FormatWindows(rows []WindowsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(host has %d CPU(s); speedup is vs one window over the same anchored store; results bit-identical)\n",
		runtime.NumCPU())
	fmt.Fprintf(&b, "%-10s %8s %6s %5s %7s %8s %9s %8s %10s %10s %11s\n",
		"Dataset", "Unknowns", "Steps", "Objs", "Params", "Windows", "Sweep(s)", "Speedup", "MaxWin(s)", "MinWin(s)", "AnchorKiB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %6d %5d %7d %8d %9.3f %7.2fx %10.3f %10.3f %11.1f\n",
			r.Dataset, r.Unknowns, r.Steps, r.Objs, r.Params,
			r.Windows, r.Sec, r.Speedup, r.MaxWindowSec, r.MinWindowSec,
			float64(r.AnchorBytes)/1024)
	}
	return b.String()
}
