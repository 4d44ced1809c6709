package masc

import (
	"runtime"
	"testing"

	"masc/internal/obs"
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
func warmRunAllocation(t *testing.T, ds *workload.Dataset, opt SimOptions) (run *Run, allocated, trajectory int64) {
	t.Helper()
	opt.Transient.TStep, opt.Transient.TStop = ds.Tran.TStep, ds.Tran.TStop
	simulate := func() *Run {
		run, err := Simulate(ds.Ckt, opt, ds.Objectives, ds.Params)
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
// compressed rung lives in the off-heap arena, dropped steps only ever pass
// through one scratch frame) and no plaintext frames beyond
// the free list — and what it holds off the heap stays under the budget plus
// one blob. When every step was walked hot → compressed → dropped, the same
// run allocated each step's blob on the heap only to discard ~94 % of them.
// Placement depends on sizes alone, so the race detector's slowdown cannot
// move it: most steps go straight from the hot tier to the recompute rung,
// as on the benchmark's mem_budget workload.
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
	t.Run("drop", func(t *testing.T) {
		offHeapBefore := int64(obs.CollectProvenance().StoreOffheapBytes)
		run, allocated, trajectory := warmRunAllocation(t, ds, SimOptions{Storage: StorageMASC,
			MemBudgetBytes: memBudget})
		st := run.TensorStats
		steps := int64(run.Tran.Steps())
		frame := st.RawBytes / int64(st.Steps)
		if st.TierDemotions < steps/2 || st.TierDirectDrops < steps/2 || st.TierRecomputes == 0 {
			t.Fatalf("the budget does not send most steps to the recompute rung: %+v", st)
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

// TestSerialMASCRunAllocationBudget bounds what one warm serial StorageMASC
// run allocates: the trajectory it returns, plus a fixed set-up cost, plus a
// few KiB of bookkeeping per step — and nothing that scales with the tensor.
// Before the blob arena and the pooled reverse sweep, the same run allocated
// the whole raw tensor again as per-step plaintext frames, plus every blob
// with slack, which is what set the GC's headroom and with it the process's
// real peak memory.
func TestSerialMASCRunAllocationBudget(t *testing.T) {
	run, allocated, trajectory := warmRunAllocation(t, allocFixture(t), SimOptions{Storage: StorageMASC})
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
