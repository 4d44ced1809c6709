package masc

import (
	"runtime"
	"testing"
	"time"

	"masc/internal/obs"
	"masc/internal/runstate"
	"masc/internal/tiersched"
	"masc/internal/workload"
)

func allocFixture(t *testing.T) *workload.Dataset {
	t.Helper()
	ds, err := workload.Build("MOS_T7", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// warmRunAllocation runs opt twice on the fixture — once to pay for the
// one-time pattern, ordering and codec-plan work — and returns the second
// run with the bytes it allocated on the GC heap and the size of the
// trajectory it returns, the one allocation that has to scale with the run.
// tierModel, when non-nil, builds each run's tiered cost model (the runPlan
// seam); nil is Simulate as callers get it.
func warmRunAllocation(t *testing.T, ds *workload.Dataset, opt SimOptions, tierModel func() *tiersched.Model) (run *Run, allocated, trajectory int64) {
	t.Helper()
	opt.Transient.TStep, opt.Transient.TStop = ds.Tran.TStep, ds.Tran.TStop
	simulate := func() *Run {
		plan, err := newRunPlan(ds.Ckt, &opt, ds.Objectives, ds.Params)
		if err != nil {
			t.Fatal(err)
		}
		if tierModel != nil {
			plan.tierModel = tierModel()
		}
		run, err := plan.execute(ds.Ckt, &opt, func() (*runstate.Writer, error) { return nil, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	simulate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run = simulate()
	runtime.ReadMemStats(&after)
	for _, x := range run.Tran.States {
		trajectory += int64(8 * len(x))
	}
	return run, int64(after.TotalAlloc - before.TotalAlloc), trajectory
}

// TestBudgetedMASCRunAllocationBudget is the serial test's twin under a
// memory budget of about half the compressed tensor (the benchmark's
// mem_budget shape): the tiered store may allocate the trajectory, a fixed
// set-up cost and a few KiB of bookkeeping per step — no blob objects (the
// compressed rung lives in the off-heap arena, spilled and dropped steps
// only ever pass through one scratch frame) and no plaintext frames beyond
// the free list — and what it holds off the heap stays under the budget plus
// one blob. When every step was walked hot → compressed → dropped, the same
// run allocated each step's blob on the heap only to discard ~94 % of them.
// The bounds are the same on the recompute rung (mem_budget's) and on the
// spill rung. Which of the two a run takes is the cost model's call, and on
// wall-clock samples that call changes with the host and under the race
// detector; here the model runs on a FakeClock — every timed operation one
// tick — and is fed one recomputation sample up front, which prices
// recomputation from then on (the forward-step proxy never does), so the
// rung is a function of what the case feeds: a recomputation far cheaper
// than the three ticks of a spill round-trip, or far dearer.
//
// It runs first in this file so that, in a whole-package run, no other
// store has raised the process-wide off-heap peak before it looks.
func TestBudgetedMASCRunAllocationBudget(t *testing.T) {
	ds := allocFixture(t)
	// StorageMASC stores this tensor at CR ≈ 13, so raw/30 is about half of
	// that; working it out from the patterns keeps any other store — and
	// its arena — out of the process before the measurement.
	raw := int64(8*(ds.Ckt.JPat.NNZ()+ds.Ckt.CPat.NNZ())) * int64(ds.Tran.EstimatedSteps())
	memBudget := raw / 30
	const tick = time.Millisecond
	for _, tc := range []struct {
		name      string
		recompute time.Duration
	}{{"drop", tick / 1000}, {"spill", 1000 * tick}} {
		t.Run(tc.name, func(t *testing.T) {
			offHeapBefore := int64(obs.CollectProvenance().StoreOffheapBytes)
			run, allocated, trajectory := warmRunAllocation(t, ds, SimOptions{Storage: StorageMASC,
				MemBudgetBytes: memBudget, DiskDir: t.TempDir()}, func() *tiersched.Model {
				m := tiersched.NewModel(tiersched.NewFakeClock(tick))
				m.ObserveRecompute(tc.recompute)
				return m
			})
			st := run.TensorStats
			steps := int64(run.Tran.Steps())
			frame := st.RawBytes / int64(st.Steps)
			if drop := tc.recompute < tick; st.TierDemotions < steps/2 || (st.TierDirectDrops >= steps/2) != drop || (st.TierRecomputes > 0) != drop {
				t.Fatalf("the budget does not bind the way this case feeds it: %+v", st)
			}

			budget := trajectory + 1<<20 + steps*4<<10
			offHeap := int64(obs.CollectProvenance().StoreOffheapBytes)
			if offHeap == 0 {
				// No anonymous mmap on this platform: the arena's chunks
				// are heap allocations, the compressed rung (under the
				// budget) rounded up to whole 4 MiB chunks.
				budget += memBudget + 4<<20
			}
			if budget > st.RawBytes/2 {
				t.Fatalf("fixture too small to tell: budget %d B against a %d B tensor", budget, st.RawBytes)
			}
			if allocated > budget {
				t.Fatalf("one budgeted MASC run allocated %d B; budget %d B (trajectory %d B + 1 MiB + 4 KiB × %d steps); the raw tensor is %d B",
					allocated, budget, trajectory, steps, st.RawBytes)
			}
			// A blob is smaller than its frame or it is not kept. The peak
			// is the process's, so it can only be judged against this run's
			// bound when nothing earlier had already pushed it higher.
			if limit := max(offHeapBefore, memBudget+frame); offHeap > limit {
				t.Fatalf("off-heap peak %d B; the budget is %d B and one blob at most %d B (peak before the run: %d B)",
					offHeap, memBudget, frame, offHeapBefore)
			}
			t.Logf("allocated %d B of a %d B budget; raw tensor %d B, mem budget %d B, off-heap peak %d B, %d demotions (%d direct drops) of %d steps",
				allocated, budget, st.RawBytes, memBudget, offHeap, st.TierDemotions, st.TierDirectDrops, steps)
		})
	}
}

// TestSerialMASCRunAllocationBudget bounds what one warm serial StorageMASC
// run allocates: the trajectory it returns, plus a fixed set-up cost, plus a
// few KiB of bookkeeping per step — and nothing that scales with the tensor.
// Before the blob arena and the pooled reverse sweep, the same run allocated
// the whole raw tensor again as per-step plaintext frames, plus every blob
// with slack, which is what set the GC's headroom and with it the process's
// real peak memory.
func TestSerialMASCRunAllocationBudget(t *testing.T) {
	run, allocated, trajectory := warmRunAllocation(t, allocFixture(t), SimOptions{Storage: StorageMASC}, nil)
	steps := int64(run.Tran.Steps())
	budget := trajectory + 1<<20 + steps*4<<10
	if obs.CollectProvenance().StoreOffheapBytes == 0 {
		// No anonymous mmap on this platform: the arena's chunks are heap
		// allocations, the stored bytes rounded up to whole 4 MiB chunks.
		budget += run.TensorStats.StoredBytes + 4<<20
	}
	raw := run.TensorStats.RawBytes
	if budget > raw/2 {
		t.Fatalf("fixture too small to tell: budget %d B against a %d B tensor", budget, raw)
	}
	if allocated > budget {
		t.Fatalf("one serial MASC run allocated %d B; budget %d B (trajectory %d B + 1 MiB + 4 KiB × %d steps); the raw tensor is %d B",
			allocated, budget, trajectory, steps, raw)
	}
	t.Logf("allocated %d B of a %d B budget; raw tensor %d B, stored %d B", allocated, budget, raw, run.TensorStats.StoredBytes)
}
