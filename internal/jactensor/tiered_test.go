package jactensor

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/sparse"
)

// newTieredFixture builds a tiered store over masczip codecs with a
// bit-exact recompute hook backed by the fixture itself (standing in for
// adjoint.NewRecomputeSource).
func newTieredFixture(jp, cp *sparse.Pattern, js, cs [][]float64, cfg TieredConfig) *TieredStore {
	st := NewTieredStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), cfg)
	st.SetRecompute(func(step int) ([]float64, []float64, error) {
		return js[step], cs[step], nil
	})
	return st
}

// TestTierString pins the metric-label spelling of each rung.
func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{TierHot: "hot", TierCompressed: "compressed", TierDropped: "dropped", numTiers: "unknown"} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}

// TestTieredDroppedWithoutHookDegrades: a deliberately dropped step with no
// recompute hook must surface as a degradable StepError (the adjoint
// sweep's recompute ladder handles it), never a silent wrong answer.
func TestTieredDroppedWithoutHookDegrades(t *testing.T) {
	jp, cp, js, cs := tensorFixture(64, 40, 12)
	st := NewTieredStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), TieredConfig{BudgetBytes: 4 << 10})
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().TierDroppedSteps == 0 {
		t.Fatal("tiny budget dropped nothing")
	}
	var sawDegradable bool
	for i := len(js) - 1; i >= 0; i-- {
		_, _, err := st.Fetch(i)
		if err == nil {
			continue
		}
		var se *StepError
		if !errors.As(err, &se) || !se.Degradable {
			t.Fatalf("fetch %d: %v, want degradable StepError", i, err)
		}
		sawDegradable = true
	}
	if !sawDegradable {
		t.Fatal("no dropped step surfaced during the sweep")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredHotRotQuarantinesAtDemotion pins the laundering hazard: a hot
// frame that rots in RAM after its sidecar was recorded must be quarantined
// when the budget demotes it — re-encoding it would seal the rotted bytes
// under a fresh, valid blob CRC that the fetch path would then trust.
func TestTieredHotRotQuarantinesAtDemotion(t *testing.T) {
	jp, cp, js, cs := tensorFixture(65, 40, 12)
	st := newTieredFixture(jp, cp, js, cs, TieredConfig{BudgetBytes: 8 << 10})
	st.Attach(Attachment{Fault: faultinject.New(faultinject.Profile{Name: "rot", Seed: 7, BitFlipOneIn: 3})})
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().CorruptBlobs == 0 {
		t.Fatal("no rotted frame was quarantined during capture-side demotion")
	}
	// Every fetch either returns pristine bits or degrades loudly; then the
	// Repair path heals the quarantined steps like the other stores.
	for i := len(js) - 1; i >= 0; i-- {
		jv, cv, err := st.Fetch(i)
		if err != nil {
			var se *StepError
			if !errors.As(err, &se) || !se.Degradable {
				t.Fatalf("fetch %d: %v, want degradable StepError", i, err)
			}
			st.Repair(i, js[i], cs[i])
			if jv, cv, err = st.Fetch(i); err != nil {
				t.Fatalf("fetch %d after repair: %v", i, err)
			}
		}
		for k := range jv {
			if math.Float64bits(jv[k]) != math.Float64bits(js[i][k]) {
				t.Fatalf("step %d: J[%d] mismatch", i, k)
			}
		}
		for k := range cv {
			if math.Float64bits(cv[k]) != math.Float64bits(cs[i][k]) {
				t.Fatalf("step %d: C[%d] mismatch", i, k)
			}
		}
		st.Release(i)
	}
	if st.Stats().Repairs == 0 {
		t.Fatal("no step went through the repair path")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredStatsAccounting sanity-checks the per-tier placement: tier steps
// partition the steps, and still do after the sweep has released every one
// of them; demotions happened under a binding budget; and the configured
// budget is echoed back for manifests.
func TestTieredStatsAccounting(t *testing.T) {
	jp, cp, js, cs := tensorFixture(67, 40, 16)
	const budget = 8 << 10
	st := newTieredFixture(jp, cp, js, cs, TieredConfig{BudgetBytes: budget})
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.BudgetBytes != budget {
		t.Fatalf("BudgetBytes = %d, want %d", stats.BudgetBytes, budget)
	}
	total := stats.TierHotSteps + stats.TierCompressedSteps + stats.TierDroppedSteps
	if total != len(js) {
		t.Fatalf("tier steps sum to %d, want %d (%+v)", total, len(js), stats)
	}
	if stats.TierDemotions == 0 {
		t.Fatal("binding budget recorded no demotions")
	}
	if stats.TierHotSteps == len(js) {
		t.Fatal("binding budget left every step hot")
	}
	for i := len(js) - 1; i >= 0; i-- {
		if _, _, err := st.Fetch(i); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		st.Release(i)
	}
	after := st.Stats()
	if after.TierPromotions == 0 {
		t.Fatal("reverse sweep recorded no promotions")
	}
	if after.TierHotSteps != stats.TierHotSteps || after.TierCompressedSteps != stats.TierCompressedSteps ||
		after.TierDroppedSteps != stats.TierDroppedSteps {
		t.Fatalf("placement moved when the sweep released its steps:\n%+v\n%+v", stats, after)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredRecyclesFrames pins the tiered store's steady state: under a
// tight budget every Put demotes a frame and every fetch promotes one, and
// neither may allocate a fresh plaintext frame or a slack-padded blob per
// step — hot frames come off the free list and demotions compress into the
// scratch frames. What remains is one exact-size copy of each blob (the
// fixture's self-contained blobs barely compress, so that is about the raw
// size once) plus bookkeeping; the old code allocated the raw tensor three
// times over (Put copies, padded blobs, promoted frames).
func TestTieredRecyclesFrames(t *testing.T) {
	const n, steps = 300, 200
	jp, cp, js, cs := tensorFixture(62, n, steps)
	frame := int64(8 * (len(js[0]) + len(cs[0])))
	st := newTieredFixture(jp, cp, js, cs, TieredConfig{
		BudgetBytes:     3 * frame,
		DisablePrefetch: true,
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	for i := steps - 1; i >= 0; i-- {
		if _, _, err := st.Fetch(i); err != nil {
			t.Fatal(err)
		}
		st.Release(i)
	}
	runtime.ReadMemStats(&after)
	raw := frame * steps
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > raw*3/2 {
		t.Fatalf("forward+reverse over a %d B tensor allocated %d B; frames are not being recycled", raw, got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
