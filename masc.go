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
// in-memory compression (best-fit, or with the Markov selector), and — under
// SimOptions.MemBudgetBytes — a tiered store that places every step on hot
// RAM, compressed RAM, disk or recompute.
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
//		TStep: 2e-6, TStop: 1e-3, Storage: masc.StorageMASC,
//	}, []masc.Objective{{Name: "v(out)", Node: out, Weight: 1}}, nil)
//	fmt.Println(run.Sens.DOdp)
package masc

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/circuit"
	"masc/internal/compress/masczip"
	"masc/internal/device"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/netlist"
	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/runstate"
	"masc/internal/sparse"
	"masc/internal/tiersched"
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
	// expvar rendering.
	Registry = obs.Registry
	// Manifest is the run-manifest document written by -manifest.
	Manifest = obs.Manifest
	// MetricsServer is the HTTP endpoint serving /metrics and pprof.
	MetricsServer = obs.Server
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

// ErrInterrupted is wrapped into Simulate/RunTransient errors when
// TransientOptions.Stop requested a halt (e.g. on SIGINT).
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

// ServeMetrics starts an HTTP listener on addr exposing /metrics
// (Prometheus text format), /debug/vars (expvar) and /debug/pprof.
func ServeMetrics(addr string, reg *Registry) (*MetricsServer, error) {
	return obs.Serve(addr, reg)
}

// DefaultSpanCapacity is the span ring size NewSpanRecorder callers
// typically want (large enough for every span of a mid-sized run).
const DefaultSpanCapacity = span.DefaultCapacity

// NewSpanRecorder returns a span recorder with a bounded ring of capacity
// records (<=0 picks DefaultSpanCapacity). Assign it to Observer.Spans.
func NewSpanRecorder(capacity int) *SpanRecorder { return span.NewRecorder(capacity) }

// NewBroadcaster returns an SSE broadcaster for Observer.Events.
func NewBroadcaster() *Broadcaster { return obs.NewBroadcaster() }

// ServeObserver is ServeMetrics plus the observer's span and event
// endpoints: /debug/spans (JSONL, ?format=chrome for a Perfetto-loadable
// trace) and /events (SSE) when the observer carries them.
func ServeObserver(addr string, ob *Observer) (*MetricsServer, error) {
	return obs.ServeObserver(addr, ob)
}

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
	// StorageMASC keeps MASC-compressed tensors in RAM (best-fit mode).
	StorageMASC Storage = "masc"
	// StorageMASCMarkov is MASC with the Markov model selector.
	StorageMASCMarkov Storage = "masc+markov"
)

// SimOptions configures Simulate.
type SimOptions struct {
	// TStep and TStop define the fixed-step time axis (required).
	TStep, TStop float64
	// Storage selects the Jacobian strategy; default StorageMASC.
	Storage Storage
	// Workers bounds the parallel compressor (default 1).
	Workers int
	// AdjointWorkers bounds the reverse sweep's parallelism: values > 1
	// shard the parameter-gradient loop and the per-objective RHS builds
	// across that many workers and overlap Jacobian fetches with the
	// adjoint compute. 0 and 1 both mean fully serial. Sensitivities are
	// bit-identical for every value.
	AdjointWorkers int
	// AdjointWindows splits the reverse sweep in time: W > 1 runs W
	// window-local reverse sweeps concurrently, seeded at the window
	// boundaries (parallel-in-time, on top of AdjointWorkers' within-step
	// parallelism). -1 picks W automatically from the machine width and
	// the step count. 0 and 1 both mean one sweep. For the MASC storage
	// strategies the forward pass then retains one uncompressed anchor
	// frame per window boundary (restarting the prediction chain there),
	// which adds W-1 frames of resident memory. Sensitivities are
	// bit-identical for every value, including degraded runs.
	AdjointWindows int
	// Async pipelines the compressed store: compression runs on a
	// background worker so the transient loop proceeds to step t+1 while
	// step t-1 compresses, and the reverse sweep prefetches the next step
	// during each adjoint solve. Only meaningful for the MASC storage
	// strategies. The stored bytes are byte-identical to sync mode.
	Async bool
	// PipelineDepth bounds how many timesteps the solver may run ahead of
	// the async compressor (default 2). Larger depths hide longer
	// compression bursts at the cost of more resident plaintext copies.
	PipelineDepth int
	// DiskBytesPerSec models the spill-device bandwidth for StorageDisk;
	// 0 means unthrottled. DiskDir defaults to the system temp directory.
	DiskBytesPerSec float64
	DiskDir         string
	// MemBudgetBytes caps the Jacobian store's modelled resident bytes
	// ("finish this sweep in 256 MB"). A positive budget replaces the
	// in-RAM storage strategies (memory, masc, masc+markov) with a
	// tiered store that places each step across hot RAM → compressed RAM →
	// disk spill → deliberate drop-and-recompute, scheduled by a cost model
	// fed with timings measured from the first steps of the run. The selected
	// strategy still picks the codecs (masc+markov enables the Markov
	// selector; memory and masc use the default MASC codec). Every tier is
	// lossless, so sensitivities stay bit-identical to the unlimited-RAM
	// run for any budget, workers, and windows; the budget only trades
	// memory for time. DiskDir/DiskBytesPerSec configure the spill rung.
	// 0 (default) disables tiering; StorageRecompute and StorageDisk
	// ignore the budget (their footprint is already step-count-free).
	// Async and CollectCodecStats are inert under a budget.
	MemBudgetBytes int64
	// Transient exposes the remaining solver knobs; TStep/TStop above
	// override its time axis when set.
	Transient TransientOptions
	// Obs, if non-nil, receives telemetry from every pipeline stage:
	// metric updates into Obs.Reg and the run's span tree into Obs.Spans.
	// A nil Obs (or nil fields) costs nothing on the hot paths.
	Obs *Observer
	// CollectCodecStats enables the masczip encoder-side predictor
	// statistics (Run.CodecStatsG/C); MASC storage strategies only.
	// Adds one branch plus a few counter increments per element.
	CollectCodecStats bool
	// Fault, if non-nil, wires a deterministic fault injector into the
	// selected storage backend: blob bit rot, spill I/O errors, pipeline
	// worker panics. Testing/chaos use only; nil costs nothing.
	Fault *FaultInjector
	// DisableDegrade turns off the reverse sweep's recompute-on-corruption
	// fallback: a corrupt blob then fails the run instead of degrading.
	DisableDegrade bool
	// Ctx, if non-nil, cancels the run cooperatively: the forward loop and
	// the reverse sweep poll it at step boundaries, and the disk-backed
	// stores' I/O retry sleeps abort on it. The run returns the context's
	// error (wrapped); the forward phase additionally wraps ErrInterrupted.
	Ctx context.Context
	// Deadline, if positive, bounds the whole run's wall time (forward +
	// adjoint + store I/O) by layering a timeout context over Ctx. A run
	// past its deadline fails with context.DeadlineExceeded — and, when
	// journaled, resumes from where it stopped.
	Deadline time.Duration
	// NewtonBudget, if positive, bounds the wall time one integration step
	// may burn in failed Newton attempts before the run aborts with
	// transient.ErrNewtonBudget (see TransientOptions.NewtonBudget).
	NewtonBudget time.Duration
	// FetchStallTimeout, if positive, bounds how long the adjoint sweep
	// waits for one Jacobian fetch before aborting with
	// adjoint.ErrFetchStalled instead of hanging on a wedged read.
	FetchStallTimeout time.Duration
	// Journal, if non-empty, write-ahead journals the run to this path: the
	// resolved configuration, a checkpoint per accepted forward step, and
	// the adjoint engine's per-window progress, fsync'd on a bounded
	// cadence. A run killed at any instant resumes via masc.Resume with
	// bit-identical sensitivities. Journaling pins
	// TransientOptions.FreshFactorPerStep so checkpoints fully determine
	// the solver's downstream trajectory.
	Journal string
	// JournalFsyncEvery overrides the journal fsync cadence (checkpoints
	// per fsync; default runstate.DefaultFsyncEvery). Phase boundaries
	// always fsync. Smaller values shrink the crash window at the cost of
	// forward throughput.
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
	// HasCodecStats (MASC storage with SimOptions.CollectCodecStats set).
	CodecStatsG, CodecStatsC CodecStats
	HasCodecStats            bool
}

// runPlan is the fully resolved shape of one simulation: the merged solver
// options plus the storage and parallelism choices Simulate derives from
// SimOptions (some of which depend on runtime.NumCPU). Resolving the plan
// once — and journaling the resolved values — is what lets Resume replay an
// identical shape on a different machine.
type runPlan struct {
	topt        TransientOptions
	storage     Storage
	workers     int
	windows     int
	anchorEvery int
	objectives  []Objective
	params      []int

	// tierModel prices the tiered store's ladder. Nil — always, outside this
	// package's tests — is the wall-clock model; a test hands in one over a
	// tiersched.FakeClock so placements are a function of the samples it feeds.
	tierModel *tiersched.Model
}

// newRunPlan resolves opt into a concrete plan.
func newRunPlan(opt *SimOptions, objectives []Objective, params []int) (*runPlan, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("masc: at least one objective is required")
	}
	topt := opt.Transient
	if opt.TStep != 0 {
		topt.TStep = opt.TStep
	}
	if opt.TStop != 0 {
		topt.TStop = opt.TStop
	}
	if opt.NewtonBudget > 0 {
		topt.NewtonBudget = opt.NewtonBudget
	}
	storage := opt.Storage
	if storage == "" {
		storage = StorageMASC // an unknown name fails in newStore
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	windows := resolveAdjointWindows(opt.AdjointWindows, topt.EstimatedSteps())
	anchorEvery := 0
	if windows > 1 {
		// Pin ~W anchor steps so window boundaries land on self-contained
		// frames the reverse sweeps restart from (and, under a budget,
		// frames the scheduler demotes last and never drops).
		if est := topt.EstimatedSteps(); est > 0 {
			anchorEvery = est / windows
			if anchorEvery < 1 {
				anchorEvery = 1
			}
		}
	}
	return &runPlan{topt: topt, storage: storage, workers: workers, windows: windows,
		anchorEvery: anchorEvery, objectives: objectives, params: params}, nil
}

// newStore builds the Jacobian store the plan calls for; nil means
// StorageRecompute, which keeps nothing. It fails on an unknown strategy or
// an unusable spill directory.
func (plan *runPlan) newStore(ckt *Circuit, opt *SimOptions) (jactensor.Store, error) {
	storage := plan.storage
	switch storage {
	case StorageRecompute:
		return nil, nil
	case StorageDisk:
		return jactensor.NewDiskStore(opt.DiskDir, opt.DiskBytesPerSec)
	case StorageMemory, StorageMASC, StorageMASCMarkov:
	default:
		// A caller's typo, or a journal naming a storage this build does not
		// have: either way, before the journal is opened.
		return nil, fmt.Errorf("masc: unknown storage strategy %q", storage)
	}
	// Under a budget the tiered store owns residency policy for every in-RAM
	// strategy: Async and CollectCodecStats are inert, and the codec is the
	// MASC pair.
	budgeted := opt.MemBudgetBytes > 0
	// mascPair is the one place the storage name becomes codecs: masc+markov
	// turns on the Markov selector, masc and memory are best-fit.
	mascPair := func() (*masczip.Compressor, *masczip.Compressor) {
		mo := masczip.Options{Markov: storage == StorageMASCMarkov, Workers: plan.workers,
			CollectStats: opt.CollectCodecStats && !budgeted}
		return masczip.New(ckt.GPat, mo), masczip.New(ckt.CPat, mo)
	}
	// anchored cuts the store at ~W steps across the estimated trajectory, so
	// every window boundary lands on a self-contained frame the reverse
	// sweeps restart from (and, under a budget, one the scheduler demotes
	// last and never drops).
	anchored := func(st interface{ SetAnchorEvery(int) }) {
		if plan.anchorEvery > 0 {
			st.SetAnchorEvery(plan.anchorEvery)
		}
	}
	switch {
	case budgeted:
		gc, cc := mascPair()
		ts := jactensor.NewTieredStore(gc, cc, jactensor.TieredConfig{
			BudgetBytes:     opt.MemBudgetBytes,
			DiskDir:         opt.DiskDir,
			DiskBytesPerSec: opt.DiskBytesPerSec,
			Model:           plan.tierModel,
		})
		anchored(ts)
		return ts, nil
	case storage == StorageMemory:
		return jactensor.NewMemStore(), nil
	}
	gc, cc := mascPair()
	var cs *jactensor.CompressedStore
	if opt.Async {
		cs = jactensor.NewCompressedStoreAsync(gc, cc, ckt.GPat, ckt.CPat, opt.PipelineDepth)
	} else {
		cs = jactensor.NewCompressedStore(gc, cc, ckt.GPat, ckt.CPat)
	}
	anchored(cs)
	return cs, nil
}

// Simulate runs the full MASC pipeline on ckt: forward transient analysis
// with Jacobian capture under the selected storage strategy, then the
// reverse adjoint sweep for the given objectives. params selects parameter
// indices from ckt.Params(); nil means all parameters.
func Simulate(ckt *Circuit, opt SimOptions, objectives []Objective, params []int) (*Run, error) {
	plan, err := newRunPlan(&opt, objectives, params)
	if err != nil {
		return nil, err
	}
	return plan.execute(ckt, &opt, func() (*runstate.Writer, error) {
		if opt.Journal == "" {
			return nil, nil
		}
		return runstate.Create(opt.Journal, plan.journalConfig(ckt, &opt))
	}, nil)
}

// execute runs a resolved plan. It builds the store first and only then
// opens the journal — journal creates or reopens the run's write-ahead
// journal, or returns nil for an unjournaled run — so a request whose store
// cannot be built leaves an earlier journal at that path untouched. rcv, if
// non-nil, is recovered journal state to resume from (the store is re-seeded
// from its checkpoints, the forward loop re-enters after the last one, and
// completed adjoint windows are replayed instead of re-swept). Store and
// journal are closed on every path.
func (plan *runPlan) execute(ckt *Circuit, opt *SimOptions, journal func() (*runstate.Writer, error), rcv *runstate.Recovered) (*Run, error) {
	store, err := plan.newStore(ckt, opt)
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
	topt := plan.topt
	storage, windows := plan.storage, plan.windows
	objectives, params := plan.objectives, plan.params

	// One context governs the forward loop, the reverse sweep, and the
	// disk-backed stores' retry sleeps.
	ctx := opt.Ctx
	if opt.Deadline > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, opt.Deadline)
		defer cancel()
	}
	topt.Ctx = ctx

	// The run root span: every forward/adjoint/store span of this simulation
	// nests under it. Inert (zero span, ID 0) without a recorder.
	rec := opt.Obs.SpanRecorder()
	rsp := rec.Start(0, span.Run, -1)
	rsp.Attr("workers", int64(plan.workers))
	rsp.Attr("windows", int64(windows))
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
		st.Attach(jactensor.Attachment{Obs: opt.Obs, Scope: rsp.ID(), Fault: opt.Fault, Ctx: ctx,
			State: func(int) []float64 { return putting }})
	}
	put := func(step int, x, gv, cv []float64) error {
		putting = x
		err := store.Put(step, gv, cv)
		putting = nil
		return err
	}
	if st, ok := store.(interface{ ObserveStepCost(time.Duration) }); ok {
		// The solver's per-step wall time is the tiered store's cost-model
		// recompute-price proxy, sampled from the first steps on.
		prevCost := topt.StepCost
		topt.StepCost = func(step int, d time.Duration) {
			if prevCost != nil {
				prevCost(step, d)
			}
			st.ObserveStepCost(d)
		}
	}
	if st, ok := store.(interface{ SyncSpill() error }); ok && jw != nil {
		// Spill blobs a durable checkpoint logically covers must reach
		// stable storage before the checkpoint record does.
		jw.SetPreSync(st.SyncSpill)
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

	// fail syncs and closes everything on an error path; the journal stays a
	// valid, resumable prefix of the work accepted so far. The journal closes
	// first: its final sync runs the spill pre-sync hook, which needs the
	// store still open.
	fail := func(err error) (*Run, error) {
		if jw != nil {
			jw.Close()
		}
		if store != nil {
			store.Close() // shuts down any async pipeline worker
		}
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
	var tr *transient.Result
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
		fresh, err := transient.Run(ckt, topt)
		if err != nil {
			return fail(err)
		}
		tr = fresh
		if jw != nil {
			if err := jw.ForwardDone(tr.Steps()); err != nil {
				return fail(err)
			}
		}
	}
	run := &Run{Tran: tr, Storage: storage}
	if st, ok := store.(interface{ SetRecompute(jactensor.RecomputeFunc) }); ok {
		// The trajectory now exists: give the tiered store the bit-exact
		// recompute path for deliberately dropped steps — the same
		// re-derivation the degradation ladder uses for corruption, but
		// wired inside the store so planned drops never count as degraded.
		st.SetRecompute(adjoint.NewRecomputeSource(ckt, tr).Pair)
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
	aopt := adjoint.Options{Params: params, StoredGC: true, Obs: opt.Obs, DisableDegrade: opt.DisableDegrade,
		Workers: opt.AdjointWorkers, Windows: windows, SpanParent: rsp.ID(),
		Ctx: ctx, FetchStallTimeout: opt.FetchStallTimeout}
	if jw != nil && windows > 1 {
		rowLen := len(objectives) * paramCount(ckt, params)
		aopt.WindowDone = func(j, lo, hi int, rows [][]float64, degraded []int) error {
			return jw.WindowDone(&runstate.WindowRec{J: j, Lo: lo, Hi: hi,
				RowLen: rowLen, Rows: rows, Degraded: degraded})
		}
	}
	if rcv != nil && len(rcv.Windows) > 0 {
		aopt.Completed = make(map[int]*adjoint.WindowProgress, len(rcv.Windows))
		for j, wr := range rcv.Windows {
			aopt.Completed[j] = &adjoint.WindowProgress{Lo: wr.Lo, Hi: wr.Hi,
				Rows: wr.Rows, Degraded: wr.Degraded}
		}
	}
	sens, err := adjoint.Sensitivities(ckt, tr, src, objectives, aopt)
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
	// Journal before store: the journal's closing sync drives the spill
	// pre-sync hook, which needs the store still open.
	if jw != nil {
		if err := jw.Close(); err != nil {
			if store != nil {
				store.Close()
			}
			return nil, err
		}
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// paramCount resolves the effective parameter count of a params selection.
func paramCount(ckt *Circuit, params []int) int {
	if params == nil {
		return len(ckt.Params())
	}
	return len(params)
}

// resolveAdjointWindows maps the SimOptions.AdjointWindows knob to a
// concrete window count: -1 = auto (one window per CPU, but at least ~8
// steps per window so seeding overhead cannot dominate), 0/1 = one sweep.
func resolveAdjointWindows(w, estSteps int) int {
	if w >= 0 {
		return w
	}
	aw := runtime.NumCPU()
	if max := estSteps / 8; aw > max {
		aw = max
	}
	if aw < 1 {
		aw = 1
	}
	return aw
}

// ParseByteSize parses a human byte-size string for SimOptions.
// MemBudgetBytes / masc -mem-budget: a non-negative number with an optional
// K/M/G/T suffix (binary multiples; "KiB"/"MB" spellings and lower case
// accepted, so "256M", "256MiB" and "268435456" all work). 0 means
// unlimited.
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
	if err != nil || !(v >= 0 && v < 1<<63) {
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
