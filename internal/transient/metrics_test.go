package transient_test

import (
	"testing"

	"masc/internal/obs"
	"masc/internal/obs/span"
	"masc/internal/transient"
	"masc/internal/workload"
)

// TestAdaptiveMetricsCountEveryAttempt: under LTE step control the registry's
// Newton and factorization counters are Stats', rejected attempts included —
// an attempt the LTE test throws away has run its Newton solve like one Newton
// itself failed on — and the step spans say which of the two cut each rejected
// attempt, and at what simulation time.
func TestAdaptiveMetricsCountEveryAttempt(t *testing.T) {
	for _, name := range []string{"CHIP_05", "smult20"} {
		ds, err := workload.Build(name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		ob := &obs.Observer{Reg: obs.NewRegistry(), Spans: span.NewRecorder(1 << 16)}
		opt := ds.Tran
		opt.Adaptive = true
		opt.Obs = ob
		res, err := transient.Run(ds.Ckt, opt)
		if err != nil {
			t.Fatal(err)
		}
		counter := func(metric string) int {
			return int(ob.Reg.Counter(metric, "").Value())
		}
		st := res.Stats
		if got := counter("masc_transient_newton_iters_total"); got != st.NewtonIters {
			t.Errorf("%s: masc_transient_newton_iters_total %d, Stats.NewtonIters %d", name, got, st.NewtonIters)
		}
		if got, want := counter("masc_transient_factorizations_total"), st.Factorizations+st.Refactorizations; got != want {
			t.Errorf("%s: masc_transient_factorizations_total %d, Stats %d", name, got, want)
		}
		if got := counter("masc_transient_step_cuts_total"); got != st.StepsCut {
			t.Errorf("%s: masc_transient_step_cuts_total %d, Stats.StepsCut %d", name, got, st.StepsCut)
		}

		cuts := map[int64]int{}
		lastPs := int64(-1)
		for _, rec := range ob.Spans.Snapshot() {
			if rec.Kind != span.Step {
				continue
			}
			attrs := map[string]int64{}
			for _, a := range rec.AttrList() {
				attrs[a.Key] = a.Val
			}
			ps, ok := attrs["t_ps"]
			if !ok || ps <= 0 {
				t.Fatalf("%s: step span without sim time: %+v", name, rec.AttrList())
			}
			if reason, cut := attrs["cut"]; cut {
				cuts[reason]++
			} else if ps < lastPs { // sub-picosecond steps share a reading
				t.Fatalf("%s: accepted step at %d ps after one at %d ps", name, ps, lastPs)
			} else {
				lastPs = ps
			}
		}
		if cuts[2] == 0 {
			t.Fatalf("%s: fixture: no LTE rejection in %d cuts", name, st.StepsCut)
		}
		if cuts[2] != st.StepsCut-cuts[1] || len(cuts) > 2 {
			t.Errorf("%s: step spans carry cuts %v, Stats.StepsCut %d", name, cuts, st.StepsCut)
		}
		if want := int64(opt.TStop*1e12 + 0.5); lastPs != want {
			t.Errorf("%s: last accepted step at %d ps, TStop %d ps", name, lastPs, want)
		}
	}
}
