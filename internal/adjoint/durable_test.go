package adjoint

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"masc/internal/circuit"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// cancellingSource cancels a context after a fixed number of fetches — the
// reverse-sweep analogue of a deadline firing mid-run.
type cancellingSource struct {
	base    JacobianSource
	cancel  context.CancelFunc
	after   int32
	fetches int32
}

func (c *cancellingSource) Fetch(i int) ([]float64, []float64, error) {
	if atomic.AddInt32(&c.fetches, 1) == c.after {
		c.cancel()
	}
	return c.base.Fetch(i)
}

func (c *cancellingSource) Release(i int) { c.base.Release(i) }

// stallingSource blocks one step's fetch until the gate closes — a wedged
// disk read, from the sweep's point of view.
type stallingSource struct {
	base  JacobianSource
	stall int
	gate  chan struct{}
}

func (s *stallingSource) Fetch(i int) ([]float64, []float64, error) {
	if i == s.stall {
		<-s.gate
	}
	return s.base.Fetch(i)
}

func (s *stallingSource) Release(i int) { s.base.Release(i) }

// runForward integrates the rc_ladder fixture into a fresh memory store.
func runForward(t *testing.T) (ckt *circuit.Circuit, res *transient.Result, src JacobianSource, objs []Objective) {
	t.Helper()
	tc := cases()[0]
	c, b := tc.build(t)
	opt := tc.opt
	mem := jactensor.NewMemStore()
	opt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		return mem.Put(step, J.Val, C.Val)
	}
	r, err := transient.Run(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.EndForward(); err != nil {
		t.Fatal(err)
	}
	node, err := b.NodeIndex(tc.obj)
	if err != nil {
		t.Fatal(err)
	}
	objs = []Objective{
		{Name: "final", Node: node, Weight: 1},
		{Name: "integral", Node: node, Weight: 2, Integral: true},
	}
	return c, r, keepAll{mem}, objs
}

// TestCancelDuringWindowedSweep is the satellite-3 regression: cancellation
// that fires while a windowed, overlapped (fetcher-goroutine) sweep is in
// flight must surface as the context error from Sensitivities and tear every
// worker down cleanly — run under -race in CI.
func TestCancelDuringWindowedSweep(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	for _, cfg := range []Options{
		{Windows: 3},
		{Windows: 3, Workers: 2},
		{Workers: 2},
		{},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancellingSource{base: src, cancel: cancel, after: 10}
		cfg.Ctx = ctx
		_, err := Sensitivities(ckt, res, cs, objs, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("windows=%d workers=%d: want context.Canceled, got %v",
				cfg.Windows, cfg.Workers, err)
		}
	}
}

// TestPreCanceledContext: a context dead on arrival aborts before any work.
func TestPreCanceledContext(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sensitivities(ckt, res, src, objs, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestWedgedFetchHonoursDeadline: a fetch that never returns must not hold
// the overlapped sweep past the caller's deadline — the wait for the fetcher
// selects on the context, and the wedged fetcher is abandoned. The windowed
// engine's sweeps share that wait, so a deadline frees them too.
func TestWedgedFetchHonoursDeadline(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"overlapped", Options{Workers: 2}},
		{"windowed", Options{Windows: 3, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			defer close(gate) // let the abandoned fetcher goroutines exit
			ss := &stallingSource{base: src, stall: res.Steps() / 2, gate: gate}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			opt := tc.opt
			opt.Ctx = ctx
			done := make(chan error, 1)
			go func() {
				_, err := Sensitivities(ckt, res, ss, objs, opt)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("want context.DeadlineExceeded, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("sweep hung on a wedged fetch despite the deadline")
			}
		})
	}
}

// TestWindowDoneReplayBitIdentical is the adjoint half of the resume
// property: journaling every window's contribution rows via WindowDone and
// replaying any subset of them through Completed must reproduce the
// uninterrupted DOdp bits exactly — including the all-complete case, which
// folds without sweeping.
func TestWindowDoneReplayBitIdentical(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	const W = 3

	want, err := Sensitivities(ckt, res, src, objs, Options{Windows: W})
	if err != nil {
		t.Fatal(err)
	}

	// Journal every window.
	records := map[int]*WindowProgress{}
	_, err = Sensitivities(ckt, res, src, objs, Options{Windows: W,
		WindowDone: func(j, lo, hi int, rows [][]float64, degraded []int) error {
			wp := &WindowProgress{Lo: lo, Hi: hi, Degraded: append([]int(nil), degraded...)}
			for _, row := range rows {
				wp.Rows = append(wp.Rows, append([]float64(nil), row...))
			}
			records[j] = wp
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != W {
		t.Fatalf("WindowDone fired for %d windows, want %d", len(records), W)
	}
	// Owned ranges must tile [0, n] exactly.
	covered := 0
	for _, wp := range records {
		covered += wp.Hi - wp.Lo + 1
	}
	if covered != res.Steps()+1 {
		t.Fatalf("owned ranges cover %d steps, trajectory has %d", covered, res.Steps()+1)
	}

	subset := func(js ...int) map[int]*WindowProgress {
		m := map[int]*WindowProgress{}
		for _, j := range js {
			m[j] = records[j]
		}
		return m
	}
	cases := []map[int]*WindowProgress{
		subset(0),
		subset(W - 1),     // completed seeder, others re-swept
		subset(0, 1),      // all but the seeder
		subset(0, 1, W-1), // everything: fold directly
	}
	for ci, completed := range cases {
		got, err := Sensitivities(ckt, res, src, objs, Options{Windows: W, Completed: completed})
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for o := range want.DOdp {
			for pk := range want.DOdp[o] {
				if math.Float64bits(got.DOdp[o][pk]) != math.Float64bits(want.DOdp[o][pk]) {
					t.Fatalf("case %d: DOdp[%d][%d] = %x, want %x", ci, o, pk,
						math.Float64bits(got.DOdp[o][pk]), math.Float64bits(want.DOdp[o][pk]))
				}
			}
		}
	}

	// Stale geometry must be dropped, not folded: shift one record's range.
	bad := subset(0)
	bad[0] = &WindowProgress{Lo: bad[0].Lo + 1, Hi: bad[0].Hi + 1, Rows: records[0].Rows}
	got, err := Sensitivities(ckt, res, src, objs, Options{Windows: W, Completed: bad})
	if err != nil {
		t.Fatal(err)
	}
	for o := range want.DOdp {
		for pk := range want.DOdp[o] {
			if math.Float64bits(got.DOdp[o][pk]) != math.Float64bits(want.DOdp[o][pk]) {
				t.Fatalf("stale progress perturbed DOdp[%d][%d]", o, pk)
			}
		}
	}
}
