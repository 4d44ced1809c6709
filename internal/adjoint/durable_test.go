package adjoint

import (
	"context"
	"errors"
	"fmt"
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

// TestCancelMidSweep: cancellation that fires while a one-worker or a
// two-worker sweep is in flight must surface as the context error from Sensitivities and tear every worker down cleanly — run
// under -race in CI.
func TestCancelMidSweep(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	for _, cfg := range []Options{{Workers: 2}, {}} {
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancellingSource{base: src, cancel: cancel, after: 10}
		cfg.Ctx = ctx
		_, err := Sensitivities(ckt, res, cs, objs, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", cfg.Workers, err)
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
// the sweep past the caller's deadline at any worker count — the wait for
// the fetcher selects on the context, and the wedged fetcher is abandoned.
func TestWedgedFetchHonoursDeadline(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"overlapped", Options{Workers: 2}},
		{"one-worker", Options{}},
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

// orderedSource records the steps fetched, in order.
type orderedSource struct {
	base    JacobianSource
	fetched []int
}

func (o *orderedSource) Fetch(i int) ([]float64, []float64, error) {
	o.fetched = append(o.fetched, i)
	return o.base.Fetch(i)
}

func (o *orderedSource) Release(i int) { o.base.Release(i) }

// TestWindowsOptionIsInert: Options.Windows is retired. Whatever it holds,
// the sweep is the one reverse sweep — every step fetched once, n down to 0,
// the DOdp bits of the zero value — and the result reports one window and no
// per-window timings.
func TestWindowsOptionIsInert(t *testing.T) {
	ckt, res, src, objs := runForward(t)
	want, err := Sensitivities(ckt, res, src, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 0, 1, 2, 3, res.Steps() + 5} {
		t.Run(fmt.Sprintf("windows=%d", w), func(t *testing.T) {
			seen := &orderedSource{base: src}
			got, err := Sensitivities(ckt, res, seen, objs, Options{Windows: w, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got.Windows != 1 || got.WindowSweepSec != nil {
				t.Fatalf("Windows %d, WindowSweepSec %v; want 1 and nil", got.Windows, got.WindowSweepSec)
			}
			if len(seen.fetched) != res.Steps()+1 {
				t.Fatalf("%d fetches for %d steps", len(seen.fetched), res.Steps()+1)
			}
			for k, i := range seen.fetched {
				if i != res.Steps()-k {
					t.Fatalf("fetch %d was step %d, want %d", k, i, res.Steps()-k)
				}
			}
			for o := range want.DOdp {
				for pk := range want.DOdp[o] {
					if math.Float64bits(got.DOdp[o][pk]) != math.Float64bits(want.DOdp[o][pk]) {
						t.Fatalf("DOdp[%d][%d] = %x, want %x", o, pk,
							math.Float64bits(got.DOdp[o][pk]), math.Float64bits(want.DOdp[o][pk]))
					}
				}
			}
		})
	}
}
