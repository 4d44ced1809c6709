package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/runstate"
	"masc/internal/transient"
	"masc/internal/workload"
)

// JournalRow is one (dataset, fsync cadence) measurement of write-ahead
// journal overhead on the forward phase. FsyncEvery 0 is the journal-off
// baseline; OverheadPct is the slowdown of the journaled run against it.
// Both sides pin FreshFactorPerStep (the pivot discipline every journaled
// run uses), so the overhead isolates the journal's own encode + write +
// fsync cost rather than the determinism tax.
type JournalRow struct {
	Dataset      string
	Unknowns     int
	Steps        int
	FsyncEvery   int
	Sec          float64
	StepRate     float64 // accepted forward steps per second
	OverheadPct  float64
	FsyncSec     float64 // wall time inside fsync — the part the cadence knob tunes
	JournalBytes int64
	Fsyncs       int64
}

// RunJournal measures forward-phase journal overhead: each dataset runs the
// capture loop (compressed store, fresh factorization per step) with the
// journal off and then at every requested fsync cadence, checkpointing the
// full solution vector per accepted step exactly as masc.Simulate does.
// Best-of-3 per configuration.
func RunJournal(names []string, scale float64, cadences []int) ([]JournalRow, error) {
	if names == nil {
		names = []string{"add20", "CHIP_08"}
	}
	if cadences == nil {
		cadences = []int{1, 8, runstate.DefaultFsyncEvery, 128}
	}
	dir, err := os.MkdirTemp("", "masc-bench-journal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []JournalRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}

		// forward runs one capture pass; cadence 0 = no journal. Returns
		// the best wall time of 3 plus the journal's size and fsync count.
		forward := func(cadence int) (JournalRow, error) {
			row := JournalRow{Dataset: name, Unknowns: ds.Ckt.N, FsyncEvery: cadence}
			for rep := 0; rep < 3; rep++ {
				cs := jactensor.NewCompressedStore(
					masczip.New(ds.Ckt.GPat, masczip.Options{}), masczip.New(ds.Ckt.CPat, masczip.Options{}),
					ds.Ckt.GPat, ds.Ckt.CPat)
				opt := ds.CaptureInto(cs)
				opt.FreshFactorPerStep = true
				var jw *runstate.Writer
				path := filepath.Join(dir, fmt.Sprintf("%s-c%d-r%d.wal", name, cadence, rep))
				if cadence > 0 {
					jw, err = runstate.Create(path, &runstate.Config{
						N: ds.Ckt.N, TStep: opt.TStep, TStop: opt.TStop,
						FsyncEvery: cadence,
					})
					if err != nil {
						return row, err
					}
					opt.AfterStep = func(step int, t, h, nextH float64, cuts int, x []float64) error {
						return jw.AppendStep(&runstate.StepRec{
							Step: step, T: t, H: h, NextH: nextH, Cuts: cuts, X: x})
					}
				}
				start := time.Now()
				tr, err := transient.Run(ds.Ckt, opt)
				if err != nil {
					return row, fmt.Errorf("bench journal %s cadence %d: %w", name, cadence, err)
				}
				sec := time.Since(start).Seconds()
				var fsyncSec float64
				if jw != nil {
					if err := jw.ForwardDone(tr.Steps()); err != nil {
						return row, err
					}
					row.Fsyncs = jw.Fsyncs()
					fsyncSec = jw.FsyncTime().Seconds()
					if err := jw.Close(); err != nil {
						return row, err
					}
					if fi, err := os.Stat(path); err == nil {
						row.JournalBytes = fi.Size()
					}
					os.Remove(path)
				}
				cs.Close()
				row.Steps = tr.Steps()
				if rep == 0 || sec < row.Sec {
					row.Sec = sec
					row.FsyncSec = fsyncSec
				}
			}
			row.StepRate = float64(row.Steps) / row.Sec
			return row, nil
		}

		base, err := forward(0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, base)
		for _, cadence := range cadences {
			if cadence < 1 {
				continue
			}
			row, err := forward(cadence)
			if err != nil {
				return nil, err
			}
			row.OverheadPct = (row.Sec/base.Sec - 1) * 100
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatJournal renders the journal-overhead study.
func FormatJournal(rows []JournalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(host has %d CPU(s); fsync=0 is the journal-off baseline; both sides pin fresh per-step factorization)\n",
		runtime.NumCPU())
	fmt.Fprintf(&b, "%-10s %8s %6s %6s %9s %9s %9s %9s %11s %7s\n",
		"Dataset", "Unknowns", "Steps", "Fsync", "Fwd(s)", "Steps/s", "Overhead", "Fsync(s)", "Journal", "Fsyncs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %6d %6d %9.3f %9.0f %8.1f%% %9.3f %10.1fK %7d\n",
			r.Dataset, r.Unknowns, r.Steps, r.FsyncEvery, r.Sec, r.StepRate,
			r.OverheadPct, r.FsyncSec, float64(r.JournalBytes)/1024, r.Fsyncs)
	}
	return b.String()
}
