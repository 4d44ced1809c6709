// Package masc is a memory-efficient adjoint transient sensitivity engine
// for circuit simulation, reproducing "MASC: A Memory-Efficient Adjoint
// Sensitivity Analysis through Compression Using Novel Spatiotemporal
// Prediction" (DAC 2024).
//
// The package bundles a complete SPICE-like substrate — netlist parsing,
// MNA assembly with R/C/L/V/I/diode/BJT/MOSFET models, sparse LU, backward
// Euler transient analysis — with discrete adjoint sensitivity analysis
// whose per-timestep Jacobian tensor is retained through one of the
// Storage strategies: recomputation (the Xyce-style baseline), raw memory,
// bandwidth-modelled disk spill, MASC's lossless spatiotemporally predicted
// in-memory compression (the Markov selector, each blob carrying its selector
// table only where the table pays for itself). Under SimOptions.MemBudgetBytes
// the MASC chain keeps the first steps whose blobs fit the budget and
// recomputes the rest in the reverse sweep.
//
// Quick start:
//
//	b := masc.NewBuilder()
//	b.AddVSource("vin", "in", "0", masc.Sin{VA: 1, Freq: 1e3})
//	b.AddResistor("r1", "in", "out", 1e3)
//	b.AddCapacitor("c1", "out", "0", 1e-6)
//	ckt, _ := b.Build()
//	out, _ := b.NodeIndex("out")
//	run, _ := masc.Simulate(ckt, masc.SimOptions{
//		Transient: masc.TransientOptions{TStep: 2e-6, TStop: 1e-3},
//		Storage:   masc.StorageMASC,
//	}, []masc.Objective{{Name: "v(out)", Node: out, Weight: 1}}, nil)
//	fmt.Println(run.Sens.DOdp)
package masc

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"masc/internal/adjoint"
	"masc/internal/circuit"
	"masc/internal/compress/masczip"
	"masc/internal/device"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/lu"
	"masc/internal/netlist"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/runstate"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Circuit is an assembled circuit ready for analysis.
	Circuit = circuit.Circuit
	// Builder constructs circuits from named nodes.
	Builder = circuit.Builder
	// Objective selects a final-state voltage objective for sensitivity.
	Objective = adjoint.Objective
	// TransientOptions configures the forward analysis.
	TransientOptions = transient.Options
	// TransientResult is the forward trajectory.
	TransientResult = transient.Result
	// SensitivityResult holds dO/dp for every objective × parameter.
	SensitivityResult = adjoint.Result
	// TensorStats describes the Jacobian store footprint and time costs.
	TensorStats = jactensor.Stats
	// Deck is a parsed netlist.
	Deck = netlist.Deck
	// PrintVar is one .print output column of a parsed netlist.
	PrintVar = netlist.PrintVar

	// Waveform source shapes.
	Waveform = device.Waveform
	DC       = device.DC
	Sin      = device.Sin
	Pulse    = device.Pulse
	PWL      = device.PWL

	// Method selects the integration scheme of the forward analysis.
	Method = transient.Method

	// Observer bundles the optional telemetry sinks (metrics, spans, SSE).
	Observer = obs.Observer
	// Registry is a concurrent metrics registry with Prometheus and
	// JSON-snapshot rendering.
	Registry = obs.Registry
	// Manifest is the run-manifest document written by -manifest.
	Manifest = obs.Manifest
	// CodecStats is the predictor-selection statistics of one masczip
	// encoder (G or C), available via SimOptions.CollectCodecStats.
	CodecStats = masczip.Stats

	// SpanRecorder is the bounded in-memory recorder of hierarchical run
	// spans (Observer.Spans). Nil recorders are inert everywhere.
	SpanRecorder = span.Recorder
	// SpanRecord is one completed span as stored in the recorder's ring.
	SpanRecord = span.Record
	// SpanID identifies a span; 0 means "no parent" (the run root's parent).
	SpanID = span.ID
	// Broadcaster fans live telemetry out to /events SSE subscribers
	// (Observer.Events).
	Broadcaster = obs.Broadcaster

	// FaultInjector deterministically corrupts blobs and fails I/O for
	// robustness testing (SimOptions.Fault). A nil injector is inert.
	FaultInjector = faultinject.Injector
	// FaultProfile configures what a FaultInjector breaks and how often.
	FaultProfile = faultinject.Profile
)

// NewFaultInjector builds a deterministic fault injector from a profile.
func NewFaultInjector(p FaultProfile) *FaultInjector { return faultinject.New(p) }

// ErrInterrupted is wrapped into Simulate/RunTransient errors when the run's
// context (SimOptions.Ctx, TransientOptions.Ctx) stopped the forward loop —
// a signal, a deadline or an explicit cancel.
var ErrInterrupted = transient.ErrInterrupted

// Integration schemes (set SimOptions.Transient.Method).
const (
	MethodBE   = transient.MethodBE
	MethodTrap = transient.MethodTrap
)

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return circuit.NewBuilder() }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewManifest starts a run manifest for the named tool.
func NewManifest(tool string) *Manifest { return obs.NewManifest(tool) }

// DefaultSpanCapacity is the span ring size NewSpanRecorder callers
// typically want (large enough for every span of a mid-sized run).
const DefaultSpanCapacity = span.DefaultCapacity

// NewSpanRecorder returns a span recorder with a bounded ring of capacity
// records (<=0 picks DefaultSpanCapacity). Assign it to Observer.Spans.
func NewSpanRecorder(capacity int) *SpanRecorder { return span.NewRecorder(capacity) }

// NewBroadcaster returns an SSE broadcaster for Observer.Events.
func NewBroadcaster() *Broadcaster { return obs.NewBroadcaster() }

// WriteSpanJSONL writes one JSON object per span record.
func WriteSpanJSONL(w io.Writer, recs []SpanRecord) error { return span.WriteJSONL(w, recs) }

// WriteChromeTrace writes the records as a Chrome trace-event JSON
// document loadable in Perfetto / chrome://tracing.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error { return span.WriteChromeTrace(w, recs) }

// AppendSpanJSON appends r's JSON encoding to dst (allocation-free given
// capacity); the same encoding WriteSpanJSONL uses per line.
func AppendSpanJSON(dst []byte, r *SpanRecord) []byte { return span.AppendJSON(dst, r) }

// ParseNetlist parses a SPICE-subset netlist.
func ParseNetlist(r io.Reader) (*Deck, error) { return netlist.Parse(r) }

// Storage selects how the Jacobian tensor of the forward run is retained
// for the reverse (adjoint) pass.
type Storage string

// TensorLayout names what every Storage keeps per step: the matrices the
// devices produce, G = ∂f/∂x and C = ∂q/∂x. The system Jacobian
// J = G + C/h the solver assembles from them is not stored beside C — it
// would carry C's entropy a second time — but rebuilt bit-exactly by the
// reverse sweep as each pair is fetched. TensorStats.RawBytes and
// StoredBytes count this pair; manifests record it as sections.tensor.layout.
const TensorLayout = "g+c"

const (
	// StorageRecompute re-evaluates Jacobians during the reverse pass
	// (the paper's Xyce baseline: no memory, maximum time).
	StorageRecompute Storage = "recompute"
	// StorageMemory keeps raw tensors in RAM (fast, huge footprint).
	StorageMemory Storage = "memory"
	// StorageDisk spills raw tensors to a bandwidth-modelled disk.
	StorageDisk Storage = "disk"
	// StorageMASC keeps MASC-compressed tensors in RAM, coded with the
	// Markov model selector.
	StorageMASC Storage = "masc"
)

// SimOptions configures Simulate.
type SimOptions struct {
	// Transient holds the solver knobs; its TStep and TStop define the time
	// axis (required).
	Transient TransientOptions
	// Storage selects the Jacobian strategy; default StorageMASC.
	Storage Storage
	// AdjointWorkers is how many shards the reverse sweep splits its
	// parameter-gradient loop and per-objective RHS builds into, on the
	// process-wide worker pool; 0 and 1 both mean one. At every value the sweep reads the store through a fetcher
	// goroutine one step ahead of the adjoint compute. Sensitivities are
	// bit-identical for every value.
	AdjointWorkers int
	// Deprecated: has no effect; one reverse sweep runs.
	AdjointWindows int
	// Async pipelines the compressed store's forward pass: compression runs
	// on a background worker so the transient loop proceeds to step t+1
	// while step t-1 compresses. Only meaningful for StorageMASC, or
	// StorageMemory under a budget. The stored bytes are byte-identical to
	// sync mode, and under a budget so are the steps kept.
	Async bool
	// Deprecated: has no effect; the solver runs at most two steps ahead of
	// the async compressor.
	PipelineDepth int
	// DiskBytesPerSec models the spill-device bandwidth for StorageDisk;
	// 0 means unthrottled. DiskDir defaults to the system temp directory.
	DiskBytesPerSec float64
	DiskDir         string
	// MemBudgetBytes caps the Jacobian store's modelled resident bytes
	// ("finish this sweep in 256 MB"). A positive budget makes either in-RAM
	// strategy (memory, masc) the MASC chain under an admission rule: a step's
	// blob is kept while the blobs kept so far, it and a reserve of
	// (depth+1) frames for the windows' plaintext fit the budget; after the
	// first that does not, every later step is dropped without meeting the
	// codec, and the reverse sweep recomputes it from the trajectory. A
	// budget the whole chain fits under stores exactly what the unbudgeted
	// run stores. Admission depends only on frame and blob sizes, never on
	// timings, so identical runs keep the same steps; every step comes back
	// bit-exact, so sensitivities stay bit-identical to the unlimited-RAM run
	// for any budget and worker count — the budget only trades memory for
	// time. The cap holds up to one frame in flight, plus the frames waiting
	// in the compression queue under Async, at most two. 0 (default) means
	// no budget; StorageRecompute and StorageDisk ignore it (their footprint
	// is already step-count-free).
	MemBudgetBytes int64
	// Obs, if non-nil, receives telemetry from every pipeline stage:
	// metric updates into Obs.Reg and the run's span tree into Obs.Spans.
	// A nil Obs (or nil fields) costs nothing on the hot paths.
	Obs *Observer
	// CollectCodecStats enables the masczip encoder-side predictor
	// statistics (Run.CodecStatsG/C); StorageMASC, or StorageMemory under a
	// budget.
	// Adds one branch plus a few counter increments per element.
	CollectCodecStats bool
	// Fault, if non-nil, wires a deterministic fault injector into the
	// selected storage backend: blob bit rot, spill I/O errors, pipeline
	// worker panics. Testing/chaos use only; nil costs nothing.
	Fault *FaultInjector
	// Ctx, if non-nil, is the run's one stop signal: a signal handler's
	// context, a deadline (context.WithTimeout) or an explicit cancel. The
	// forward loop and the reverse sweep poll it at step boundaries, the
	// sweep also while it waits for a fetch, and the disk-backed
	// stores' I/O retry sleeps abort on it. The run returns the context's
	// error (wrapped); the forward phase additionally wraps ErrInterrupted.
	// A journaled run stopped this way resumes from where it stopped.
	Ctx context.Context
	// Journal, if non-empty, write-ahead journals the run to this path: the
	// resolved configuration, a checkpoint per accepted forward step, the end
	// of the forward phase and the finished sensitivities, fsync'd on a
	// bounded cadence. A run killed at any instant resumes via masc.Resume
	// with bit-identical sensitivities; one killed during the reverse sweep
	// resumes by sweeping again. Journaling pins
	// TransientOptions.FreshFactorPerStep so checkpoints fully determine
	// the solver's downstream trajectory.
	Journal string
	// JournalFsyncEvery overrides the journal fsync cadence (checkpoints
	// per fsync; 0 = runstate.DefaultFsyncEvery, negative is refused).
	// Phase boundaries always fsync. Smaller values shrink the crash window
	// at the cost of forward throughput.
	JournalFsyncEvery int
}

// Run bundles everything a sensitivity simulation produces.
type Run struct {
	Tran        *TransientResult
	Sens        *SensitivityResult
	TensorStats TensorStats
	Storage     Storage
	// CodecStatsG/C are the predictor-selection statistics of the G and C
	// encoders (the stored pair, see TensorLayout); valid only when
	// HasCodecStats (SimOptions.CollectCodecStats set on the MASC chain:
	// StorageMASC, or StorageMemory under a budget).
	CodecStatsG, CodecStatsC CodecStats
	HasCodecStats            bool
}

// runPlan is the fully resolved shape of one simulation: the solver options
// plus the storage and parallelism choices Simulate derives from SimOptions.
// Its JSON encoding is the journal's record of the run, so Resume replays an
// identical shape on a different machine. No field is omitempty: decoding a journaled plan overwrites every
// shape field, and only Transient's `json:"-"` fields keep the caller's values.
type runPlan struct {
	Transient       TransientOptions `json:"transient"`
	Storage         Storage          `json:"storage"`
	AdjointWorkers  int              `json:"adjoint_workers"`
	Async           bool             `json:"async"`
	DiskBytesPerSec float64          `json:"disk_bps"`
	DiskDir         string           `json:"disk_dir"`
	MemBudgetBytes  int64            `json:"mem_budget_bytes"`
	Objectives      []Objective      `json:"objectives"`
	Params          []int            `json:"params"` // resolved parameter indices
}

// newRunPlan resolves opt into a concrete plan for ckt; nil params means
// every parameter of ckt.
func newRunPlan(ckt *Circuit, opt *SimOptions, objectives []Objective, params []int) (*runPlan, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("masc: at least one objective is required")
	}
	if params == nil {
		params = make([]int, len(ckt.Params()))
		for i := range params {
			params[i] = i
		}
	}
	storage := opt.Storage
	if storage == "" {
		storage = StorageMASC // an unknown name fails in newStore
	}
	return &runPlan{Transient: opt.Transient, Storage: storage,
		AdjointWorkers: opt.AdjointWorkers, Async: opt.Async,
		DiskBytesPerSec: opt.DiskBytesPerSec, DiskDir: opt.DiskDir,
		MemBudgetBytes: opt.MemBudgetBytes, Objectives: objectives, Params: params}, nil
}

// newStore builds the Jacobian store the plan calls for; nil means
// StorageRecompute, which keeps nothing. It fails on an unknown strategy or
// an unusable spill directory. collectStats asks the MASC codecs for their
// predictor statistics.
func (plan *runPlan) newStore(ckt *Circuit, collectStats bool) (jactensor.Store, error) {
	storage := plan.Storage
	switch storage {
	case StorageRecompute:
		return nil, nil
	case StorageDisk:
		return jactensor.NewDiskStore(plan.DiskDir, plan.DiskBytesPerSec)
	case StorageMemory, StorageMASC:
	default:
		// A caller's typo, or a journal naming a storage this build does not
		// have: either way, before the journal is opened.
		return nil, fmt.Errorf("masc: unknown storage strategy %q", storage)
	}
	// A budget makes either in-RAM strategy the budgeted MASC chain.
	if storage == StorageMemory && plan.MemBudgetBytes <= 0 {
		return jactensor.NewMemStore(), nil
	}
	// The MASC codec pair: the Markov selector, with each blob carrying its
	// selector table only where the table pays for itself.
	mo := masczip.Options{Markov: true, CollectStats: collectStats}
	gc, cc := masczip.New(ckt.GPat, mo), masczip.New(ckt.CPat, mo)
	var s *jactensor.CompressedStore
	if plan.Async {
		s = jactensor.NewCompressedStoreAsync(gc, cc, ckt.GPat, ckt.CPat, 0)
	} else {
		s = jactensor.NewCompressedStore(gc, cc, ckt.GPat, ckt.CPat)
	}
	s.SetBudget(plan.MemBudgetBytes)
	return s, nil
}

// BudgetReserve is the part of SimOptions.MemBudgetBytes the MASC chain over
// ckt keeps back for its windows' plaintext: a budget must exceed it by a
// blob for the chain to keep any step, and one under it keeps none.
func BudgetReserve(ckt *Circuit) int64 {
	return jactensor.ReserveBytes(masczip.MaxOrder+1, ckt.GPat.NNZ(), ckt.CPat.NNZ())
}

// Simulate runs the full MASC pipeline on ckt: forward transient analysis
// with Jacobian capture under the selected storage strategy, then the
// reverse adjoint sweep for the given objectives. params selects parameter
// indices from ckt.Params(); nil means all parameters.
func Simulate(ckt *Circuit, opt SimOptions, objectives []Objective, params []int) (*Run, error) {
	plan, err := newRunPlan(ckt, &opt, objectives, params)
	if err != nil {
		return nil, err
	}
	return plan.execute(ckt, &opt, func() (*runstate.Writer, error) {
		if opt.Journal == "" {
			return nil, nil
		}
		if opt.JournalFsyncEvery < 0 {
			return nil, fmt.Errorf("masc: negative journal fsync cadence %d", opt.JournalFsyncEvery)
		}
		cfg, err := plan.journalConfig(ckt, opt.JournalFsyncEvery)
		if err != nil {
			return nil, err
		}
		return runstate.Create(opt.Journal, cfg)
	}, nil)
}

// execute runs a resolved plan. It builds the store first and only then
// opens the journal — journal creates or reopens the run's write-ahead
// journal, or returns nil for an unjournaled run — so a request whose store
// cannot be built leaves an earlier journal at that path untouched. rcv, if
// non-nil, is recovered journal state to resume from (the store is re-seeded
// from its checkpoints, and the forward loop re-enters after the last one, or
// is skipped when the journal records its end). Store and journal are closed
// on every path. The run's shape comes from the plan alone;
// opt contributes only the runtime knobs (Obs, Fault, Ctx, CollectCodecStats).
func (plan *runPlan) execute(ckt *Circuit, opt *SimOptions, journal func() (*runstate.Writer, error), rcv *runstate.Recovered) (*Run, error) {
	store, err := plan.newStore(ckt, opt.CollectCodecStats)
	if err != nil {
		return nil, err
	}
	jw, err := journal()
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	topt := plan.Transient
	objectives, params := plan.Objectives, plan.Params

	// One context governs the forward loop, the reverse sweep, and the
	// disk-backed stores' retry sleeps.
	topt.Ctx = opt.Ctx

	// The run root span: every forward/adjoint/store span of this simulation
	// nests under it. Inert (zero span, ID 0) without a recorder.
	rec := opt.Obs.SpanRecorder()
	rsp := rec.Start(0, span.Run, -1)
	defer rsp.End()

	// One attachment wires the store; what only some stores can do is asked
	// for through a small interface where it is used. putting is the state of
	// the step being put — the trajectory's own array, from the forward loop
	// or the resume re-seed — which the chain store references beside the
	// step for its codecs.
	var putting []float64
	if st, ok := store.(interface{ Attach(jactensor.Attachment) }); ok {
		// The root span is the fallback parent for store-side spans emitted
		// outside any forward step scope (EndForward, adjoint-phase promotes).
		st.Attach(jactensor.Attachment{Obs: opt.Obs, Scope: rsp.ID(), Fault: opt.Fault, Ctx: opt.Ctx,
			State: func(int) []float64 { return putting }})
	}
	put := func(step int, x, gv, cv []float64) error {
		putting = x
		err := store.Put(step, gv, cv)
		putting = nil
		return err
	}
	topt.Obs = opt.Obs
	topt.SpanParent = rsp.ID()

	// Every store holds what the devices produce, the pair (G, C): J is a
	// function of it and the trajectory, rebuilt by the reverse sweep
	// (adjoint.Options.StoredGC), so it is never stored beside C.
	if store != nil {
		prev := topt.CaptureGC
		topt.CaptureGC = func(step int, tm float64, x []float64, G, C *sparse.Matrix) error {
			if prev != nil {
				if err := prev(step, tm, x, G, C); err != nil {
					return err
				}
			}
			if err := put(step, x, G.Val, C.Val); err != nil {
				return fmt.Errorf("masc: tensor capture: %w", err)
			}
			return nil
		}
	}

	// closeAll closes the store (shutting down any async pipeline worker) and
	// syncs and closes the journal, returning the first error; on an error
	// path the journal stays a valid, resumable prefix of the work accepted
	// so far.
	closeAll := func() error {
		var err error
		if store != nil {
			err = store.Close()
		}
		if jw != nil {
			if jerr := jw.Close(); err == nil {
				err = jerr
			}
		}
		return err
	}
	fail := func(err error) (*Run, error) {
		closeAll()
		return nil, err
	}

	if jw != nil {
		// Checkpoint every accepted step. FreshFactorPerStep pins the LU
		// pivot discipline so a checkpoint fully determines the resumed
		// solver's downstream trajectory.
		topt.FreshFactorPerStep = true
		prevAfter := topt.AfterStep
		topt.AfterStep = func(step int, t, h, nextH float64, cuts int, x []float64) error {
			if prevAfter != nil {
				if err := prevAfter(step, t, h, nextH, cuts, x); err != nil {
					return err
				}
			}
			return jw.AppendStep(&runstate.StepRec{Step: step, T: t, H: h,
				NextH: nextH, Cuts: cuts, X: x})
		}
	}

	// Resume seeding: re-derive the journaled prefix's (G, C) pairs into the
	// fresh store (bit-exact, via the recompute source), then either
	// re-enter the forward loop after the last checkpoint or, when the
	// forward phase already completed, skip it entirely.
	var (
		tr *transient.Result
		// last is the forward pass's last factors, the reverse sweep's hint
		// for its first factorization; only the sweep holds it after that.
		last *lu.LU
	)
	if rcv != nil && len(rcv.Steps) > 0 {
		method := topt.Method
		if method == "" {
			method = MethodBE
		}
		seeded := trajectoryFromSteps(rcv.Steps, method, topt.Gmin)
		if store != nil {
			rs := adjoint.NewRecomputeSource(ckt, seeded)
			for i := range rcv.Steps {
				gv, cv, err := rs.Pair(i)
				if err != nil {
					return fail(fmt.Errorf("masc: resume: re-derive step %d: %w", i, err))
				}
				if err := put(i, seeded.States[i], gv, cv); err != nil {
					return fail(fmt.Errorf("masc: resume: re-seed step %d: %w", i, err))
				}
			}
		}
		if rcv.ForwardDone {
			tr = seeded
		} else {
			last := rcv.LastStep()
			topt.Resume = &transient.ResumeState{Times: seeded.Times, Hs: seeded.Hs,
				States: seeded.States, NextH: last.NextH, Cuts: last.Cuts}
		}
	}

	if tr == nil {
		fresh, fact, err := transient.RunFactored(ckt, topt)
		if err != nil {
			return fail(err)
		}
		tr, last = fresh, fact
		if jw != nil {
			if err := jw.ForwardDone(tr.Steps()); err != nil {
				return fail(err)
			}
		}
	}
	run := &Run{Tran: tr, Storage: plan.Storage}
	if cs, ok := store.(*jactensor.CompressedStore); ok && plan.MemBudgetBytes > 0 {
		// The trajectory now exists: give the budgeted chain the bit-exact
		// recompute path for the steps it dropped — the same re-derivation
		// the degradation ladder uses for corruption, but wired inside the
		// store so planned drops never count as degraded.
		cs.SetRecompute(adjoint.NewRecomputeSource(ckt, tr).Pair)
	}

	var src adjoint.JacobianSource
	if store != nil {
		if err := store.EndForward(); err != nil {
			return fail(err)
		}
		src = store
	} else {
		src = adjoint.NewRecomputeSource(ckt, tr).Pairs()
	}
	sens, err := adjoint.Sensitivities(ckt, tr, src, objectives, adjoint.Options{Params: params,
		StoredGC: true, Obs: opt.Obs, Workers: plan.AdjointWorkers, SpanParent: rsp.ID(), Ctx: opt.Ctx,
		Hint: last})
	if err != nil {
		return fail(err)
	}
	run.Sens = sens
	if jw != nil {
		if err := jw.Done(sens.DOdp, sens.DegradedSteps); err != nil {
			return fail(err)
		}
		if opt.Obs != nil {
			reg := opt.Obs.Registry()
			reg.Gauge("masc_journal_fsync_seconds",
				"Cumulative wall time spent in run-journal fsyncs.").Set(jw.FsyncTime().Seconds())
			reg.Counter("masc_journal_fsyncs_total",
				"Run-journal fsyncs performed.").Add(float64(jw.Fsyncs()))
		}
	}
	if store != nil {
		run.TensorStats = store.Stats()
		if cs, ok := store.(interface {
			PredictorStats() (masczip.Stats, masczip.Stats, bool)
		}); ok {
			if g, c, ok := cs.PredictorStats(); ok {
				run.CodecStatsG, run.CodecStatsC = g, c
				run.HasCodecStats = true
				if opt.Obs != nil {
					jactensor.PublishCodecStats(opt.Obs.Registry(), "g", g)
					jactensor.PublishCodecStats(opt.Obs.Registry(), "c", c)
				}
			}
		}
	}
	if err := closeAll(); err != nil {
		return nil, err
	}
	return run, nil
}

// ParseByteSize parses a human byte-size string for SimOptions.
// MemBudgetBytes / masc -mem-budget: a non-negative number with an optional
// K/M/G/T suffix (binary multiples; "KiB"/"MB" spellings and lower case
// accepted, so "256M", "256MiB" and "268435456" all work). 0 means
// unlimited; a positive size under one byte is refused, not rounded to it.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("masc: empty byte size")
	}
	mult := int64(1)
	t = strings.TrimSuffix(t, "B")
	t = strings.TrimSuffix(t, "I")
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	case strings.HasSuffix(t, "T"):
		mult, t = 1<<40, t[:len(t)-1]
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	v := n * float64(mult)
	// Written so NaN fails it; 2^63 and up (and +Inf) do not fit an int64.
	if err != nil || !(v == 0 || v >= 1 && v < 1<<63) {
		return 0, fmt.Errorf("masc: bad byte size %q", s)
	}
	return int64(v), nil
}

// RunTransient runs only the forward analysis.
func RunTransient(ckt *Circuit, opt TransientOptions) (*TransientResult, error) {
	return transient.Run(ckt, opt)
}

// DirectSensitivities runs the forward (direct) sensitivity method — the
// O(#params) baseline the adjoint method replaces.
func DirectSensitivities(ckt *Circuit, tr *TransientResult, objectives []Objective, params []int) (*SensitivityResult, error) {
	return adjoint.DirectSensitivities(ckt, tr, objectives, adjoint.Options{Params: params})
}
