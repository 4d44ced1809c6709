package masc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/obs/span"
	"masc/internal/sparse"
	"masc/internal/workload"
)

// TestSimulateSpanTree runs the full pipeline with a span recorder attached
// and checks the causal structure of the result: one run root, every span
// reachable from it through parent links, and a span population covering
// the forward, storage, and adjoint layers.
func TestSimulateSpanTree(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	ob := &Observer{Spans: NewSpanRecorder(0)}
	_, err := Simulate(ckt, SimOptions{
		Transient:      TransientOptions{TStep: 2e-6, TStop: 4e-4},
		Storage:        StorageMASC,
		AdjointWorkers: 2,
		Obs:            ob,
	}, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := ob.Spans.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no spans recorded")
	}

	byID := make(map[SpanID]*SpanRecord, len(recs))
	var root SpanID
	roots := 0
	for i := range recs {
		r := &recs[i]
		byID[r.ID] = r
		if r.Parent == 0 {
			roots++
			root = r.ID
			if r.Kind != span.Run {
				t.Fatalf("parentless span is %s, want run", r.Kind)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("want exactly one run root span, got %d", roots)
	}

	// Every span must chain up to the run root through resolvable parents.
	kinds := map[span.Kind]bool{}
	for i := range recs {
		r := &recs[i]
		kinds[r.Kind] = true
		seen := 0
		for id := r.ID; id != root; seen++ {
			p, ok := byID[id]
			if !ok {
				t.Fatalf("span %d (%s) has unresolvable ancestor %d", r.ID, r.Kind, id)
			}
			if seen > len(recs) {
				t.Fatalf("parent cycle at span %d (%s)", r.ID, r.Kind)
			}
			id = p.Parent
		}
		if r.End < r.Start {
			t.Fatalf("span %d (%s) ends before it starts", r.ID, r.Kind)
		}
	}
	// The tentpole wants the tree to cover the pipeline, not just exist:
	// forward + storage + adjoint layers must all contribute kinds.
	for _, k := range []span.Kind{
		span.Run, span.Forward, span.Step, span.Put, span.Compress,
		span.Adjoint, span.Sweep, span.Fetch, span.Solve,
	} {
		if !kinds[k] {
			t.Errorf("missing span kind %s", k)
		}
	}
	if len(kinds) < 5 {
		t.Fatalf("only %d span kinds recorded, want >= 5", len(kinds))
	}

	// The Chrome trace export of a real run must be well-formed JSON with
	// one event per recorded span.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	xEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			xEvents++
		}
	}
	if xEvents != len(recs) {
		t.Fatalf("chrome trace has %d X events for %d spans", xEvents, len(recs))
	}
}

// TestSimulateSpanTreeBudget checks that a budget that drops steps records
// its one decision — a tier_decision span at the first dropped step, with the
// sizes it was made on — and a recompute span for every dropped step, in the
// run's causal tree.
func TestSimulateSpanTreeBudget(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	ob := &Observer{Spans: NewSpanRecorder(0)}
	run, err := Simulate(ckt, SimOptions{
		Transient:      TransientOptions{TStep: 2e-6, TStop: 4e-4},
		Storage:        StorageMASC,
		MemBudgetBytes: 8 << 10,
		Obs:            ob,
	}, []Objective{obj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := ob.Spans.Snapshot()
	ids := map[span.ID]bool{}
	for _, r := range recs {
		ids[r.ID] = true
	}
	var decisions, recomputes int
	for _, r := range recs {
		switch r.Kind {
		case span.TierDecision:
			decisions++
			keys := map[string]bool{}
			for _, a := range r.AttrList() {
				keys[a.Key] = true
			}
			if int(r.Step) != run.TensorStats.TierKeptSteps || len(keys) != 4 || !keys["arena_bytes"] || !keys["blob_bytes"] || !keys["reserve_bytes"] || !keys["budget_bytes"] {
				t.Errorf("decision at step %d with %v; the first dropped step is %d", r.Step, r.AttrList(), run.TensorStats.TierKeptSteps)
			}
		case span.Recompute:
			recomputes++
		default:
			continue
		}
		if !ids[r.Parent] {
			t.Errorf("%s span at step %d has no parent in the tree", r.Kind, r.Step)
		}
	}
	if s := run.TensorStats; decisions != 1 || s.TierKeptSteps == 0 || s.TierDroppedSteps == 0 || int64(recomputes) != s.TierRecomputes || s.TierRecomputes != int64(s.TierDroppedSteps) {
		t.Fatalf("%d decisions, %d recompute spans: %+v", decisions, recomputes, s)
	}
}

// TestEveryRepairRecordsASpan: whichever store heals a rotted step — the raw
// ones, the chain's own reader (on the sweep's goroutine or the overlapped
// sweep's fetcher), with or without a budget — the heal is one repair span,
// so a run's spans count what its TensorStats.Repairs does.
func TestEveryRepairRecordsASpan(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	for _, c := range []struct {
		name string
		opt  SimOptions
	}{
		{"memory", SimOptions{Storage: StorageMemory}},
		{"disk", SimOptions{Storage: StorageDisk}},
		{"masc", SimOptions{Storage: StorageMASC}},
		{"masc-workers-2", SimOptions{Storage: StorageMASC, AdjointWorkers: 2}},
		{"masc-budget-8K", SimOptions{Storage: StorageMASC, MemBudgetBytes: 8 << 10}},
	} {
		ob := &Observer{Spans: NewSpanRecorder(0)}
		opt := c.opt
		opt.Transient = TransientOptions{TStep: 2e-6, TStop: 4e-4}
		opt.DiskDir = t.TempDir()
		opt.Fault = NewFaultInjector(FaultProfile{Seed: 3, BitFlipOneIn: 5})
		opt.Obs = ob
		run, err := Simulate(ckt, opt, []Objective{obj}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		spans := 0
		for _, r := range ob.Spans.Snapshot() {
			if r.Kind == span.Repair {
				spans++
			}
		}
		if repairs := run.TensorStats.Repairs; repairs == 0 || spans != repairs {
			t.Errorf("%s: %d repair spans for %d repairs", c.name, spans, repairs)
		}
	}
}

// codedBlobs is a capture hook that counts, per tensor (G, C), the blobs a
// chain store codes from the steps it sees: every step but the head, which
// is kept as plaintext, less the repeats — a tensor bit-identical to the step
// above it, whose blob has no payload and meets no codec.
type codedBlobs struct {
	steps   int
	repeats [2]int
	prev    [2][]float64
}

func (c *codedBlobs) capture(_ int, _ float64, _ []float64, G, C *sparse.Matrix) error {
	for i, v := range [2][]float64{G.Val, C.Val} {
		if c.steps > 0 && len(v) == len(c.prev[i]) {
			same := true
			for k := range v {
				if math.Float64bits(v[k]) != math.Float64bits(c.prev[i][k]) {
					same = false
					break
				}
			}
			if same {
				c.repeats[i]++
			}
		}
		c.prev[i] = append(c.prev[i][:0], v...)
	}
	c.steps++
	return nil
}

// of is tensor i's coded blob count.
func (c *codedBlobs) of(i int) int64 { return int64(c.steps - 1 - c.repeats[i]) }

// TestSimulateCodecRegionStats: a run with CollectCodecStats says where each
// tensor's bits went and what the codec decided — per region, bits summing to
// the stream and hits + misses to the elements, hit runs, and how many blobs
// took the mate or the stamp as hit predictor — in Run and in the
// masc_codec_* families, for the serial and the pipelined store. The blobs
// counted are the ones coded: the head and the repeats meet no codec.
func TestSimulateCodecRegionStats(t *testing.T) {
	ckt, _, obj := buildTestCircuit(t)
	for _, async := range []bool{false, true} {
		ob := &Observer{Reg: NewRegistry()}
		var coded codedBlobs
		run, err := Simulate(ckt, SimOptions{
			Transient: TransientOptions{TStep: 2e-6, TStop: 4e-4, CaptureGC: coded.capture},
			Storage:   StorageMASC, Async: async,
			CollectCodecStats: true, Obs: ob,
		}, []Objective{obj}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !run.HasCodecStats {
			t.Fatal("no codec statistics")
		}
		if coded.steps != run.TensorStats.Steps {
			t.Fatalf("async=%v: the hook saw %d steps, the store %d", async, coded.steps, run.TensorStats.Steps)
		}
		prom := string(ob.Reg.WritePrometheus(nil))
		for i, tensor := range []string{"g", "c"} {
			st := [2]CodecStats{run.CodecStatsG, run.CodecStatsC}[i]
			var regionBits, misses, elements int64
			lines := []string{
				fmt.Sprintf("masc_codec_hit_predictor_blobs_total{tensor=%q,predictor=\"mate\"} %d\n", tensor, st.MateBlobs),
				fmt.Sprintf("masc_codec_hit_predictor_blobs_total{tensor=%q,predictor=\"stamp\"} %d\n", tensor, st.StampBlobs),
			}
			for rg, name := range []string{"u", "l", "d"} {
				regionBits += st.RegionBits[rg]
				misses += st.RegionMisses[rg]
				elements += st.RegionHits[rg] + st.RegionMisses[rg]
				if st.HitRuns[rg] > st.RegionHits[rg] || (st.HitRuns[rg] == 0) != (st.RegionHits[rg] == 0) {
					t.Errorf("async=%v tensor %s region %s: %d hits in %d runs", async, tensor, name, st.RegionHits[rg], st.HitRuns[rg])
				}
				lines = append(lines,
					fmt.Sprintf("masc_codec_region_bits_total{tensor=%q,region=%q} %d\n", tensor, name, st.RegionBits[rg]),
					fmt.Sprintf("masc_codec_hit_runs_total{tensor=%q,region=%q} %d\n", tensor, name, st.HitRuns[rg]))
			}
			var blobs int64
			for o, n := range st.OrderBlobs {
				blobs += n
				if v := st.VoltBlobs[o]; v < 0 || v > n {
					t.Errorf("async=%v tensor %s: %d voltage blobs of %d at order %d", async, tensor, v, n, o)
				}
				lines = append(lines,
					fmt.Sprintf("masc_codec_history_order_blobs_total{tensor=%q,order=\"%d\",family=\"time\"} %d\n", tensor, o, n-st.VoltBlobs[o]),
					fmt.Sprintf("masc_codec_history_order_blobs_total{tensor=%q,order=\"%d\",family=\"voltage\"} %d\n", tensor, o, st.VoltBlobs[o]))
			}
			if want := coded.of(i); blobs != want {
				t.Errorf("async=%v tensor %s: OrderBlobs %v sum to %d, %d blobs were coded", async, tensor, st.OrderBlobs, blobs, want)
			}
			for _, line := range lines {
				if !strings.Contains(prom, line) {
					t.Errorf("async=%v: /metrics lacks %q", async, line)
				}
			}
			if elements != st.Elements {
				t.Errorf("async=%v tensor %s: regions hold %d hits + misses, %d elements", async, tensor, elements, st.Elements)
			}
			if elements == misses {
				t.Errorf("async=%v tensor %s: no element of %d was a hit", async, tensor, elements)
			}
			if regionBits == 0 || regionBits != st.SelectorBits+st.PayloadBits {
				t.Errorf("async=%v tensor %s: regions hold %d bits, selector+payload %d", async, tensor, regionBits, st.SelectorBits+st.PayloadBits)
			}
			if misses != st.SelectorElements {
				t.Errorf("async=%v tensor %s: regions hold %d misses, selector elements %d", async, tensor, misses, st.SelectorElements)
			}
		}
	}
}

// TestSimulateCodecRegionStatsOrders: on MOS_T7 — smooth device capacitances under
// a pulse train — C's encoder reads five frames or more on most blobs, and on
// most blobs with two frames or more interpolates in the branch voltage the
// facade attaches beside them; G's hardly moves and so hardly extrapolates, the
// store reports the frames that cost, and a linear circuit's tensor, which
// never moves, is never coded — every step repeats the one above it — and
// pays no history.
func TestSimulateCodecRegionStatsOrders(t *testing.T) {
	for _, fx := range []struct {
		name   string
		linear bool
	}{{"MOS_T7", false}, {"RC_01", true}} {
		ds, err := workload.Build(fx.name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		var coded codedBlobs
		tran := ds.Tran
		tran.CaptureGC = coded.capture
		run, err := Simulate(ds.Ckt, SimOptions{Transient: tran, Storage: StorageMASC, CollectCodecStats: true},
			ds.Objectives, ds.Params)
		if err != nil {
			t.Fatal(err)
		}
		blobs, frame := coded.of(1), int64(8*(ds.Ckt.GPat.NNZ()+ds.Ckt.CPat.NNZ()))
		var high, all, volt int64
		for o, n := range run.CodecStatsC.OrderBlobs {
			if all += n; o >= 4 {
				high += n
			}
			volt += run.CodecStatsC.VoltBlobs[o]
		}
		t.Logf("%s: OrderBlobs G %v C %v, VoltBlobs G %v C %v, HistoryBytes %d (frame %d)", fx.name,
			run.CodecStatsG.OrderBlobs, run.CodecStatsC.OrderBlobs, run.CodecStatsG.VoltBlobs, run.CodecStatsC.VoltBlobs,
			run.TensorStats.HistoryBytes, frame)
		if all != blobs {
			t.Fatalf("%s: C's OrderBlobs sum to %d over %d blobs", fx.name, all, blobs)
		}
		if fx.linear {
			if blobs != 0 || coded.of(0) != 0 || run.TensorStats.HistoryBytes != 0 {
				t.Fatalf("%s: a tensor that never moves coded %d G and %d C blobs of %d steps and held %d B of history",
					fx.name, coded.of(0), blobs, coded.steps, run.TensorStats.HistoryBytes)
			}
			continue
		}
		if 2*high <= blobs {
			t.Fatalf("%s: C reads five frames or more on %d of %d blobs", fx.name, high, blobs)
		}
		if 2*volt <= blobs-1 { // the step below the head has one frame
			t.Fatalf("%s: C interpolates in the voltage on %d of the %d blobs with two frames or more", fx.name, volt, blobs-1)
		}
		if hb := run.TensorStats.HistoryBytes; hb <= frame || hb > masczip.MaxOrder*frame {
			t.Fatalf("%s: HistoryBytes %d, want between one frame (%d) and %d of them", fx.name, hb, frame, masczip.MaxOrder)
		}
	}
}
