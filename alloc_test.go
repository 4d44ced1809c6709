package masc

import (
	"runtime"
	"testing"

	"masc/internal/obs"
	"masc/internal/workload"
)

// TestSerialMASCRunAllocationBudget bounds what one warm serial StorageMASC
// run allocates: the trajectory it returns, plus a fixed set-up cost, plus a
// few KiB of bookkeeping per step — and nothing that scales with the tensor.
// Before the blob arena and the pooled reverse sweep, the same run allocated
// the whole raw tensor again as per-step plaintext frames, plus every blob
// with slack, which is what set the GC's headroom and with it the process's
// real peak memory.
func TestSerialMASCRunAllocationBudget(t *testing.T) {
	ds, err := workload.Build("MOS_T7", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	opt := SimOptions{TStep: ds.Tran.TStep, TStop: ds.Tran.TStop, Storage: StorageMASC}
	simulate := func() *Run {
		run, err := Simulate(ds.Ckt, opt, ds.Objectives, ds.Params)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	simulate() // warm: one-time pattern, ordering and codec-plan work
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := simulate()
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)

	steps := int64(run.Tran.Steps())
	var trajectory int64
	for _, x := range run.Tran.States {
		trajectory += int64(8 * len(x))
	}
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
