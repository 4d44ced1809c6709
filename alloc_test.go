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
// memory budget that keeps a few dozen steps and drops the rest:
// the budgeted run may allocate the trajectory, a fixed set-up cost and a few
// KiB of bookkeeping per step — no blob objects (kept blobs live in the
// off-heap arena), and no plaintext frames beyond the pool, though every
// dropped step is recomputed into one — and what it holds off the heap stays
// under the budget. Admission depends on sizes alone, so the race detector's
// slowdown cannot move it.
//
// It runs first in this file so that, in a whole-package run, no other
// store has raised the process-wide off-heap peak before it looks.
func TestBudgetedMASCRunAllocationBudget(t *testing.T) {
	ds := allocFixture(t)
	// The budget is worked out from the patterns, which keeps any other
	// store — and its arena — out of the process before the measurement:
	// the windows' reserve and a thousandth of the raw tensor, a few dozen
	// of the chain's blobs.
	raw := int64(8*(ds.Ckt.GPat.NNZ()+ds.Ckt.CPat.NNZ())) * int64(ds.Tran.EstimatedSteps())
	memBudget := BudgetReserve(ds.Ckt) + raw/1000
	t.Run("drop", func(t *testing.T) {
		offHeapBefore := int64(obs.CollectProvenance().StoreOffheapBytes)
		run, allocated, trajectory := warmRunAllocation(t, ds, SimOptions{Storage: StorageMASC,
			MemBudgetBytes: memBudget})
		st := run.TensorStats
		steps := int64(run.Tran.Steps())
		if st.TierKeptSteps == 0 || int64(st.TierDroppedSteps) < steps/2 || st.TierRecomputes != int64(st.TierDroppedSteps) {
			t.Fatalf("the budget does not drop most steps and keep the rest: %+v", st)
		}

		budget := trajectory + 1<<20 + steps*4<<10
		offHeap := int64(obs.CollectProvenance().StoreOffheapBytes)
		if offHeap == 0 {
			// No anonymous mmap on this platform: the arena's chunks
			// are heap allocations, the kept blobs (under the budget)
			// rounded up to whole 4 MiB chunks.
			budget += memBudget + 4<<20
		}
		if budget > st.RawBytes/2 {
			t.Fatalf("fixture too small to tell: budget %d B against a %d B tensor", budget, st.RawBytes)
		}
		if allocated > budget {
			t.Fatalf("one budgeted MASC run allocated %d B; budget %d B (trajectory %d B + 1 MiB + 4 KiB × %d steps); the raw tensor is %d B",
				allocated, budget, trajectory, steps, st.RawBytes)
		}
		// The arena holds only blobs the budget admitted. The peak is the
		// process's, so it can only be judged against this run's bound when
		// nothing earlier had already pushed it higher.
		if limit := max(offHeapBefore, memBudget); offHeap > limit {
			t.Fatalf("off-heap peak %d B over the %d B budget (peak before the run: %d B)", offHeap, memBudget, offHeapBefore)
		}
		t.Logf("allocated %d B of a %d B budget; raw tensor %d B, mem budget %d B, off-heap peak %d B, kept %d, dropped %d of %d steps",
			allocated, budget, st.RawBytes, memBudget, offHeap, st.TierKeptSteps, st.TierDroppedSteps, steps)
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
