package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakeClock yields deterministic, strictly increasing nanosecond stamps.
func fakeClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

func TestSpanBasics(t *testing.T) {
	r := NewRecorder(16)
	r.SetClock(fakeClock(1000))

	run := r.Start(0, Run, -1)
	st := r.Start(run.ID(), Step, 3)
	st.Attr("newton", 4)
	st.End()
	run.End()

	recs := r.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Push order: step ends first.
	if recs[0].Kind != Step || recs[1].Kind != Run {
		t.Fatalf("push order wrong: %v %v", recs[0].Kind, recs[1].Kind)
	}
	if recs[0].Parent != run.ID() {
		t.Fatalf("step parent = %d, want %d", recs[0].Parent, run.ID())
	}
	if recs[0].Step != 3 {
		t.Fatalf("step number = %d", recs[0].Step)
	}
	if got := recs[0].AttrList(); len(got) != 1 || got[0] != (Attr{"newton", 4}) {
		t.Fatalf("attrs = %v", got)
	}
	if recs[0].Dur() <= 0 || recs[1].Dur() <= 0 {
		t.Fatalf("non-positive durations: %d %d", recs[0].Dur(), recs[1].Dur())
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	r := NewRecorder(8)
	sp := r.Start(0, Fetch, 1)
	sp.End()
	sp.End() // deferred-End composition: second end must not push
	if n := r.Len(); n != 1 {
		t.Fatalf("Len = %d after double End, want 1", n)
	}
}

func TestRingOverflow(t *testing.T) {
	const capRecords = 8
	r := NewRecorder(capRecords)
	r.SetClock(fakeClock(1))
	for i := 0; i < 20; i++ {
		sp := r.Start(0, Solve, i)
		sp.End()
	}
	if got := r.Dropped(); got != 20-capRecords {
		t.Fatalf("dropped = %d, want %d", got, 20-capRecords)
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("total = %d, want 20", got)
	}
	recs := r.Snapshot()
	if len(recs) != capRecords {
		t.Fatalf("snapshot len = %d, want %d", len(recs), capRecords)
	}
	// Oldest are overwritten: retained steps are 12..19 in order.
	for i, rec := range recs {
		if want := int32(12 + i); rec.Step != want {
			t.Fatalf("snapshot[%d].Step = %d, want %d", i, rec.Step, want)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.SetClock(nil)
	r.SetSink(nil)
	r.SetScope(7)
	if r.Scope() != 0 || r.Now() != 0 || r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	sp := r.Start(0, Run, -1)
	if sp.ID() != 0 {
		t.Fatalf("nil-recorder span ID = %d", sp.ID())
	}
	sp.Attr("k", 1)
	sp.End()
	sp.EndAt(5)
}

func TestDisabledPathAllocs(t *testing.T) {
	var r *Recorder // disabled
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Start(0, Step, 9)
		sp.Attr("bytes", 123)
		sp.End()
		r.SetScope(sp.ID())
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestEnabledPathAllocs(t *testing.T) {
	r := NewRecorder(1 << 10)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Start(0, Step, 9)
		sp.Attr("bytes", 123)
		sp.Attr("newton", 3)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("enabled span path allocates %v per op, want 0", allocs)
	}
}

func TestScope(t *testing.T) {
	r := NewRecorder(8)
	if r.Scope() != 0 {
		t.Fatal("fresh scope nonzero")
	}
	r.SetScope(42)
	if r.Scope() != 42 {
		t.Fatalf("scope = %d", r.Scope())
	}
	r.SetScope(0)
	if r.Scope() != 0 {
		t.Fatal("scope not cleared")
	}
}

func TestSink(t *testing.T) {
	r := NewRecorder(8)
	var kinds []Kind
	r.SetSink(func(rec *Record) { kinds = append(kinds, rec.Kind) })
	a := r.Start(0, Put, 1)
	a.End()
	b := r.Start(0, Compress, 1)
	b.End()
	if len(kinds) != 2 || kinds[0] != Put || kinds[1] != Compress {
		t.Fatalf("sink saw %v", kinds)
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	r := NewRecorder(8)
	sp := r.Start(0, Solve, 0)
	for i := 0; i < MaxAttrs+3; i++ {
		sp.Attr("k", int64(i))
	}
	sp.End()
	recs := r.Snapshot()
	if got := len(recs[0].AttrList()); got != MaxAttrs {
		t.Fatalf("attrs retained = %d, want %d", got, MaxAttrs)
	}
}

func TestJSONL(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(fakeClock(500))
	sp := r.Start(0, TierDecision, 12)
	sp.Attr("tier", 2)
	sp.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("invalid JSON %q: %v", lines[0], err)
	}
	if obj["kind"] != "tier_decision" || obj["step"] != float64(12) {
		t.Fatalf("decoded %v", obj)
	}
	attrs, ok := obj["attrs"].(map[string]any)
	if !ok || attrs["tier"] != float64(2) {
		t.Fatalf("attrs decoded %v", obj["attrs"])
	}
}

// TestGoldenChromeTrace pins the exact Chrome trace-event export for a small
// causal tree: run → forward → {step0, step1} with a compress under step1,
// and a concurrent worker's shard overlapping step1 (forced onto its own
// lane).
func TestGoldenChromeTrace(t *testing.T) {
	recs := []Record{
		{ID: 1, Parent: 0, Kind: Run, Step: -1, Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Kind: Forward, Step: -1, Start: 500, End: 6_000},
		{ID: 3, Parent: 2, Kind: Step, Step: 0, Start: 1_000, End: 2_000},
		{ID: 4, Parent: 2, Kind: Step, Step: 1, Start: 2_500, End: 4_500},
		{ID: 5, Parent: 4, Kind: Compress, Step: 0, Start: 3_000, End: 4_000,
			NAttr: 1, Attrs: [MaxAttrs]Attr{{Key: "bytes", Val: 256}}},
		{ID: 6, Parent: 1, Kind: ParamShard, Step: -1, Start: 3_200, End: 7_000},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"masc"}},
{"name":"run","cat":"masc","ph":"X","ts":0.000,"dur":10.000,"pid":1,"tid":1,"args":{"id":1,"parent":0,"step":-1}},
{"name":"forward","cat":"masc","ph":"X","ts":0.500,"dur":5.500,"pid":1,"tid":1,"args":{"id":2,"parent":1,"step":-1}},
{"name":"step","cat":"masc","ph":"X","ts":1.000,"dur":1.000,"pid":1,"tid":1,"args":{"id":3,"parent":2,"step":0}},
{"name":"step","cat":"masc","ph":"X","ts":2.500,"dur":2.000,"pid":1,"tid":1,"args":{"id":4,"parent":2,"step":1}},
{"name":"compress","cat":"masc","ph":"X","ts":3.000,"dur":1.000,"pid":1,"tid":1,"args":{"id":5,"parent":4,"step":0,"bytes":256}},
{"name":"param_shard","cat":"masc","ph":"X","ts":3.200,"dur":3.800,"pid":1,"tid":2,"args":{"id":6,"parent":1,"step":-1}}
]}
`
	if got := buf.String(); got != want {
		t.Fatalf("chrome trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The export must also be valid JSON.
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if evs := obj["traceEvents"].([]any); len(evs) != len(recs)+1 {
		t.Fatalf("traceEvents len = %d", len(evs))
	}
}

// TestChromeLaneReuse checks that a lane freed by a finished family is
// reused before a new lane is opened.
func TestChromeLaneReuse(t *testing.T) {
	recs := []Record{
		{ID: 1, Kind: Sweep, Start: 0, End: 100},              // lane 1
		{ID: 2, Kind: Sweep, Start: 50, End: 150},             // overlaps 1 → lane 2
		{ID: 3, Kind: Sweep, Start: 200, End: 300},            // both idle → lane 1
		{ID: 4, Parent: 3, Kind: Fetch, Start: 210, End: 220}, // nests in lane 1
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var obj struct {
		TraceEvents []struct {
			Tid  int `json:"tid"`
			Args struct {
				ID int `json:"id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	tidOf := map[int]int{}
	for _, ev := range obj.TraceEvents[1:] {
		tidOf[ev.Args.ID] = ev.Tid
	}
	if tidOf[1] != 1 || tidOf[2] != 2 || tidOf[3] != 1 || tidOf[4] != 1 {
		t.Fatalf("lanes = %v", tidOf)
	}
}
