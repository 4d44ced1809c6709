// Command masc runs a SPICE-subset netlist through the full MASC pipeline:
// transient analysis with Jacobian-tensor capture, then adjoint sensitivity
// analysis of every .obj objective with respect to every device parameter.
//
//	masc -netlist lowpass.sp -storage masc -workers 4
//
// The storage flag selects the Jacobian strategy the paper compares:
// recompute (Xyce-style), memory, disk, masc (best-fit) and masc+markov.
//
// Crash durability: -journal run.wal checkpoints every accepted step into a
// write-ahead journal; after a crash, kill, or -deadline expiry the same
// command with -resume continues from the last checkpoint and produces
// bit-identical sensitivities. A journal that already finished returns its
// recorded result without replaying anything.
//
// Telemetry (all optional, all near-zero cost when off):
//
//	-metrics-addr :9090   serve /metrics, /debug/vars, /debug/pprof,
//	                      /debug/spans (span tree) and /events (live SSE)
//	-span-trace run.trace hierarchical span tree as Chrome trace-event JSON
//	                      (load in Perfetto / chrome://tracing)
//	-span-jsonl spans.jsonl   span tree as one JSON object per line
//	-manifest run.json    one-document run manifest (config + stats)
//	-hold 30s             keep the metrics endpoint up after the run
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"masc"
)

// cli bundles the parsed command-line configuration.
type cli struct {
	path, storage        string
	workers, depth, top  int
	adjWorkers           int
	adjWindows           int
	async                bool
	diskBps              float64
	memBudget            string
	memBudgetBytes       int64
	csvPath              string
	metricsAddr          string
	maniPath             string
	spanTrace, spanJSONL string
	hold                 time.Duration
	journal              string
	journalFsync         int
	resume               bool
	deadline             time.Duration
}

func main() {
	var c cli
	flag.StringVar(&c.path, "netlist", "", "netlist file (required)")
	flag.StringVar(&c.storage, "storage", "masc", "jacobian storage: recompute|memory|disk|masc|masc+markov")
	flag.IntVar(&c.workers, "workers", 1, "parallel compressor workers")
	flag.IntVar(&c.adjWorkers, "adjoint-workers", 1, "reverse-sweep workers (shards dF/dp + overlaps fetches; results are bit-identical for any count)")
	flag.IntVar(&c.adjWindows, "adjoint-windows", 0, "parallel-in-time window sweeps: N>1 concurrent windows, -1 auto-sizes from CPUs and step count, 0/1 one sweep (results are bit-identical for any value)")
	flag.BoolVar(&c.async, "async", false, "pipeline MASC compression on a background worker (overlaps with the solve)")
	flag.IntVar(&c.depth, "pipeline-depth", 2, "async mode: max timesteps the solver may run ahead of the compressor")
	flag.Float64Var(&c.diskBps, "disk-bps", 0, "simulated disk bandwidth in bytes/s (0 = unthrottled)")
	flag.StringVar(&c.memBudget, "mem-budget", "", "hard cap on resident Jacobian bytes, e.g. 64M or 512K (tiered store: each step is kept in hot RAM, compressed RAM, on disk or recomputed; results stay bit-identical; empty = unlimited)")
	flag.IntVar(&c.top, "top", 12, "print the top-N sensitivities per objective")
	flag.StringVar(&c.csvPath, "csv", "", "write .print waveforms to this CSV file")
	flag.StringVar(&c.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	flag.StringVar(&c.spanTrace, "span-trace", "", "write the hierarchical span tree as Chrome trace-event JSON to this file (Perfetto-loadable)")
	flag.StringVar(&c.spanJSONL, "span-jsonl", "", "write the span tree as JSONL (one span object per line) to this file")
	flag.StringVar(&c.maniPath, "manifest", "", "write a JSON run manifest (config + aggregate stats) to this file")
	flag.DurationVar(&c.hold, "hold", 0, "keep the metrics endpoint alive this long after the run finishes")
	flag.StringVar(&c.journal, "journal", "", "write-ahead run journal: checkpoints every accepted step so a killed run resumes bit-identically with -resume")
	flag.IntVar(&c.journalFsync, "journal-fsync", 0, "journal checkpoints per fsync (0 = default cadence; 1 = fsync every step)")
	flag.BoolVar(&c.resume, "resume", false, "resume the run recorded in -journal (the journal supplies storage/windows/solver knobs; the netlist must hash identically)")
	flag.DurationVar(&c.deadline, "deadline", 0, "abort the run after this wall-clock budget (a journaled run interrupted this way stays resumable)")
	flag.Parse()
	if c.path == "" {
		fmt.Fprintln(os.Stderr, "masc: -netlist is required")
		flag.Usage()
		os.Exit(2)
	}
	if c.resume && c.journal == "" {
		fmt.Fprintln(os.Stderr, "masc: -resume requires -journal")
		os.Exit(2)
	}
	if c.memBudget != "" {
		b, err := masc.ParseByteSize(c.memBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "masc: -mem-budget:", err)
			os.Exit(2)
		}
		c.memBudgetBytes = b
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "masc:", err)
		os.Exit(1)
	}
}

func run(c cli) error {
	f, err := os.Open(c.path)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := masc.ParseNetlist(f)
	if err != nil {
		return err
	}
	if !deck.HasTran {
		return fmt.Errorf("netlist has no .tran card")
	}
	if len(deck.Objectives) == 0 {
		return fmt.Errorf("netlist has no .obj card")
	}
	fmt.Printf("%s\n%s\n", deck.Title, deck.Ckt)

	// Telemetry: a registry whenever anything will consume it, a span
	// recorder when span export or the HTTP endpoint wants one, and an SSE
	// broadcaster with the server.
	var ob *masc.Observer
	var reg *masc.Registry
	spansOn := c.spanTrace != "" || c.spanJSONL != "" || c.metricsAddr != ""
	telemetry := c.maniPath != "" || spansOn
	if telemetry {
		reg = masc.NewRegistry()
		ob = &masc.Observer{Reg: reg}
		if spansOn {
			ob.Spans = masc.NewSpanRecorder(0)
		}
	}
	var srv *masc.MetricsServer
	var bc *masc.Broadcaster
	if c.metricsAddr != "" {
		// Live streaming: completed spans tee into the /events SSE
		// broadcaster as they happen. Publish copies the frame, so the sink
		// can reuse one scratch buffer.
		bc = masc.NewBroadcaster()
		ob.Events = bc
		defer bc.Close()
		var buf []byte
		ob.Spans.SetSink(func(r *masc.SpanRecord) {
			buf = masc.AppendSpanJSON(buf[:0], r)
			bc.Publish("span", buf)
		})
		srv, err = masc.ServeObserver(c.metricsAddr, ob)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving http://%s/metrics (spans: /debug/spans, live: /events)\n", srv.Addr)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM asks the transient loop to
	// stop at the next step boundary (no half-written tensor step); a second
	// signal falls through to the default handler and kills the process.
	var stopped atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		if _, ok := <-sigCh; ok {
			fmt.Fprintln(os.Stderr, "masc: interrupt — stopping at the next step boundary")
			stopped.Store(true)
			signal.Stop(sigCh)
		}
	}()

	simOpt := masc.SimOptions{
		TStep:             deck.Tran.TStep,
		TStop:             deck.Tran.TStop,
		Storage:           masc.Storage(c.storage),
		Workers:           c.workers,
		AdjointWorkers:    c.adjWorkers,
		AdjointWindows:    c.adjWindows,
		Async:             c.async,
		PipelineDepth:     c.depth,
		DiskBytesPerSec:   c.diskBps,
		MemBudgetBytes:    c.memBudgetBytes,
		Obs:               ob,
		CollectCodecStats: telemetry,
		Journal:           c.journal,
		JournalFsyncEvery: c.journalFsync,
		Deadline:          c.deadline,
	}
	simOpt.Transient.Stop = stopped.Load

	var run *masc.Run
	if c.resume {
		// The journal's config record replays the original run's shape;
		// simOpt contributes only the runtime-side knobs (telemetry,
		// deadline, stop hook).
		run, err = masc.Resume(deck.Ckt, c.journal, simOpt)
	} else {
		run, err = masc.Simulate(deck.Ckt, simOpt, deck.Objectives, nil)
	}
	if err != nil {
		if errors.Is(err, masc.ErrInterrupted) {
			// Flush and close every telemetry sink so the partial run is
			// diagnosable, then report the interruption as a failure
			// (nonzero exit). Order matters: span export and broadcaster
			// close precede the "interrupted" manifest, so a manifest on
			// disk implies the other artifacts are complete.
			if serr := exportSpans(c, ob); serr != nil {
				fmt.Fprintln(os.Stderr, "masc: span export:", serr)
			}
			bc.Close()
			if c.maniPath != "" {
				if merr := writeManifest(c, deck, nil, reg, "interrupted"); merr != nil {
					fmt.Fprintln(os.Stderr, "masc: manifest:", merr)
				} else {
					fmt.Printf("manifest written to %s\n", c.maniPath)
				}
			}
		}
		return err
	}
	// All spans are emitted inside Simulate; export now so the files are
	// complete even if the process is killed during -hold. The broadcaster
	// stays open through -hold so /events clients keep their stream.
	if err := exportSpans(c, ob); err != nil {
		return err
	}

	if run.Tran == nil {
		// -resume against a journal that already holds the done record:
		// the finished sensitivities come straight from the journal.
		fmt.Println("resume: journal already complete — sensitivities recovered without replay")
	} else {
		fill, nnz := run.Tran.Stats.FillNNZ, deck.Ckt.JPat.NNZ()
		fmt.Printf("transient: %d steps, %d newton iterations, %d (re)factorizations, %d factor reuses, fill=%d (%.2f× nnz)\n",
			run.Tran.Steps(), run.Tran.Stats.NewtonIters,
			run.Tran.Stats.Factorizations+run.Tran.Stats.Refactorizations,
			run.Tran.Stats.FactorReuses, fill, float64(fill)/float64(nnz))
		fmt.Printf("sensitivity: total %v (fetch %v, solve %v, ∂F/∂p %v), %d (re)factorizations, %d factor reuses\n",
			run.Sens.Timing.Total, run.Sens.Timing.Fetch,
			run.Sens.Timing.FactorSolve, run.Sens.Timing.ParamEval,
			run.Sens.Factorizations+run.Sens.Refactorizations, run.Sens.FactorReuses)
	}
	if run.Tran != nil && run.Storage != masc.StorageRecompute {
		st := run.TensorStats
		fmt.Printf("tensor: layout %s, raw %d B, stored %d B (CR %.2f), peak resident %d B\n",
			masc.TensorLayout, st.RawBytes, st.StoredBytes,
			float64(st.RawBytes)/float64(st.StoredBytes), st.PeakResident)
		if st.BudgetBytes > 0 {
			fmt.Printf("tiers: budget %d B — %d hot / %d compressed / %d disk / %d dropped steps, %d demotions (%d direct drops, never compressed), %d promotions, %d recomputes\n",
				st.BudgetBytes, st.TierHotSteps, st.TierCompressedSteps,
				st.TierDiskSteps, st.TierDroppedSteps,
				st.TierDemotions, st.TierDirectDrops, st.TierPromotions, st.TierRecomputes)
		}
		// Async is inert under a budget: the tiered store compresses inside Put.
		if c.async && st.BudgetBytes == 0 && (run.Storage == masc.StorageMASC || run.Storage == masc.StorageMASCMarkov) {
			fmt.Printf("pipeline: compress %v moved off the solver thread, %v leaked back as Put stalls\n",
				st.CompressTime, st.StallTime)
		}
	}

	if c.csvPath != "" {
		if run.Tran == nil {
			fmt.Fprintln(os.Stderr, "masc: -csv skipped: a completed journal holds no trajectory to replay")
		} else {
			if err := writeCSV(c.csvPath, deck, run.Tran); err != nil {
				return err
			}
			fmt.Printf("waveforms written to %s\n", c.csvPath)
		}
	}

	if c.maniPath != "" {
		if err := writeManifest(c, deck, run, reg, "ok"); err != nil {
			return err
		}
		fmt.Printf("manifest written to %s\n", c.maniPath)
	}

	params := deck.Ckt.Params()
	for o, obj := range deck.Objectives {
		fmt.Printf("\nobjective %s — top sensitivities:\n", obj.Name)
		type pv struct {
			name string
			v    float64
		}
		list := make([]pv, len(params))
		for k := range params {
			list[k] = pv{params[k].Name, run.Sens.DOdp[o][k]}
		}
		sort.Slice(list, func(i, j int) bool { return abs(list[i].v) > abs(list[j].v) })
		n := c.top
		if n > len(list) {
			n = len(list)
		}
		for _, e := range list[:n] {
			fmt.Printf("  dO/d(%-16s) = %+.6e\n", e.name, e.v)
		}
	}

	if c.hold > 0 && srv != nil {
		fmt.Printf("holding metrics endpoint http://%s/metrics for %v\n", srv.Addr, c.hold)
		time.Sleep(c.hold)
	}
	return nil
}

// writeManifest serializes the run's configuration and every layer's
// aggregate statistics as one JSON document. The tensor section is the
// store's Stats() verbatim (plus the layout those byte counts are of), so
// its fields match the in-process values bit-for-bit. run may be nil (e.g.
// an interrupted simulation): the manifest then records the configuration,
// status, and whatever metrics accumulated before the stop.
func writeManifest(c cli, deck *masc.Deck, run *masc.Run, reg *masc.Registry, status string) error {
	man := masc.NewManifest("masc")
	man.Set("netlist", c.path).
		Set("status", status).
		Set("storage", c.storage).
		Set("workers", c.workers).
		Set("adjoint_workers", c.adjWorkers).
		Set("adjoint_windows", c.adjWindows).
		Set("async", c.async).
		Set("pipeline_depth", c.depth).
		Set("disk_bps", c.diskBps).
		Set("mem_budget_bytes", c.memBudgetBytes).
		Set("tstep", deck.Tran.TStep).
		Set("tstop", deck.Tran.TStop)
	if run != nil {
		man.Set("storage", string(run.Storage))
		if run.Tran != nil {
			man.Section("transient", run.Tran.Stats)
			if run.Storage != masc.StorageRecompute {
				man.Section("tensor", struct {
					masc.TensorStats
					Layout string `json:"layout"`
				}{run.TensorStats, masc.TensorLayout})
			}
		}
		man.Section("sensitivity_timing", run.Sens.Timing)
		man.Section("sensitivity_lu", map[string]int{
			"factorizations":   run.Sens.Factorizations,
			"refactorizations": run.Sens.Refactorizations,
			"factor_reuses":    run.Sens.FactorReuses,
			"fill_nnz":         run.Sens.FillNNZ,
			"jacobian_nnz":     deck.Ckt.JPat.NNZ(),
		})
		man.Set("adjoint_windows_ran", run.Sens.Windows)
		if run.HasCodecStats {
			man.Section("codec_g", run.CodecStatsG)
			man.Section("codec_c", run.CodecStatsC)
			man.Section("codec_summary", map[string]any{
				"markov_hit_rate_g": run.CodecStatsG.MarkovHitRate(),
				"markov_hit_rate_c": run.CodecStatsC.MarkovHitRate(),
			})
		}
	}
	man.AttachMetrics(reg)
	return man.Write(c.maniPath)
}

// exportSpans writes the recorder's span snapshot to the -span-trace
// (Chrome trace-event JSON) and -span-jsonl files. A nil observer or
// recorder, or empty paths, are no-ops.
func exportSpans(c cli, ob *masc.Observer) error {
	if ob == nil || ob.Spans == nil || (c.spanTrace == "" && c.spanJSONL == "") {
		return nil
	}
	recs := ob.Spans.Snapshot()
	write := func(path string, enc func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := enc(f); err != nil {
			f.Close()
			return fmt.Errorf("span export %s: %w", path, err)
		}
		return f.Close()
	}
	if c.spanTrace != "" {
		if err := write(c.spanTrace, func(f *os.File) error {
			return masc.WriteChromeTrace(f, recs)
		}); err != nil {
			return err
		}
		fmt.Printf("span trace written to %s (%d spans)\n", c.spanTrace, len(recs))
	}
	if c.spanJSONL != "" {
		if err := write(c.spanJSONL, func(f *os.File) error {
			return masc.WriteSpanJSONL(f, recs)
		}); err != nil {
			return err
		}
		fmt.Printf("span jsonl written to %s (%d spans)\n", c.spanJSONL, len(recs))
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// writeCSV dumps the .print columns (or every node voltage when the deck
// has no .print card) over the whole trajectory.
func writeCSV(path string, deck *masc.Deck, tr *masc.TransientResult) error {
	cols := deck.Prints
	if len(cols) == 0 {
		for i, name := range deck.Ckt.Names {
			cols = append(cols, masc.PrintVar{Name: name, Node: int32(i)})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "time")
	for _, c := range cols {
		fmt.Fprintf(w, ",%s", c.Name)
	}
	fmt.Fprintln(w)
	for i, tm := range tr.Times {
		fmt.Fprintf(w, "%.12g", tm)
		for _, c := range cols {
			fmt.Fprintf(w, ",%.12g", tr.States[i][c.Node])
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
