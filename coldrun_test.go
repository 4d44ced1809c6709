package masc

import (
	"testing"

	"masc/internal/lu"
	"masc/internal/obs/span"
	"masc/internal/workload"
)

// spanAttr returns the value of r's attribute key, and whether r has it.
func spanAttr(r *SpanRecord, key string) (int64, bool) {
	for _, a := range r.AttrList() {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// TestColdRunSearchesOnce: a short run of the linear RC mesh does one pivot
// search. The DC point converges in one plain Newton iteration (no gmin
// ladder), the first step replays the DC's pivot order, the later steps
// reuse its factors, and the reverse sweep's first step replays the forward
// pass's last factors. Stats and the span attributes both say so.
func TestColdRunSearchesOnce(t *testing.T) {
	ds, err := workload.Build("RC_01", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tr := ds.Tran
	tr.TStop = tr.TStart + 4*tr.TStep
	ob := &Observer{Spans: NewSpanRecorder(0)}
	run, err := Simulate(ds.Ckt, SimOptions{Transient: tr, Storage: StorageMASC, Obs: ob}, ds.Objectives, ds.Params)
	if err != nil {
		t.Fatal(err)
	}
	st, sens := run.Tran.Stats, run.Sens
	if searches := st.Factorizations - st.FactorReplays; searches != 1 || st.FactorReplays != 1 || st.Refactorizations != 0 {
		t.Errorf("forward: %d pivot searches, %d replays, %d refactorizations; want 1, 1, 0 (%+v)",
			searches, st.FactorReplays, st.Refactorizations, st)
	}
	if sens.Factorizations != 1 || sens.FactorReplays != 1 {
		t.Errorf("reverse: %d factorizations, %d of them replays; want one replay", sens.Factorizations, sens.FactorReplays)
	}
	n := run.Tran.Steps()
	var dc, first bool
	for _, r := range ob.Spans.Snapshot() {
		switch {
		case r.Kind == span.DC:
			dc = true
			iters, _ := spanAttr(&r, "iters")
			ladder, ok := spanAttr(&r, "ladder")
			if iters != 1 || ladder != 0 || !ok {
				t.Errorf("dc span: iters %d, ladder %d (recorded %v); want one plain Newton iteration", iters, ladder, ok)
			}
		case r.Kind == span.Solve && int(r.Step) == n:
			first = true
			if what, _ := spanAttr(&r, "lu"); what != int64(lu.Replayed) {
				t.Errorf("the sweep's first solve span: lu %d, want %d (a replay)", what, lu.Replayed)
			}
		}
	}
	if !dc || !first {
		t.Fatalf("dc span recorded %v, the sweep's first solve span %v", dc, first)
	}
}
