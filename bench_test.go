package masc_test

// One testing.B benchmark per table and figure of the paper. These run the
// same experiment code as cmd/masc-bench at a reduced scale so that
// `go test -bench=. -benchmem` finishes in minutes; run
// `masc-bench -experiment all -scale 1` for the full-size numbers recorded
// in EXPERIMENTS.md.

import (
	"testing"

	"masc"
	"masc/internal/bench"
	"masc/internal/workload"
)

// benchScale trades fidelity for wall time in the -bench=. run.
const benchScale = 0.12

func BenchmarkTable1SensVsTran(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1([]string{"CHIP_01", "ram2k", "RC_02"}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("row count")
		}
	}
}

func BenchmarkFig1MemoryCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig1(nil, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2GzipBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable2([]string{"add20", "MOS_T5"}, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 measures every codec on one captured tensor; each codec
// gets a sub-benchmark so -bench output carries per-codec ns and MB/s.
func BenchmarkTable3(b *testing.B) {
	ds, err := workload.Build("add20", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	tn, err := bench.CaptureTensor(ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range bench.CodecNames() {
		codec := codec
		b.Run(codec, func(b *testing.B) {
			b.SetBytes(tn.RawBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pair, err := bench.NewCodecPair(codec, tn, 1, false)
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.MeasureCodec(pair, tn)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(r.CR, "CR")
				}
			}
		})
	}
}

func BenchmarkFig5b6Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunFig5b6([]string{"add20"}, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 runs the end-to-end strategies as sub-benchmarks.
func BenchmarkFig7(b *testing.B) {
	ds, err := workload.Build("add20", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	node := ds.Objectives[0]
	for _, storage := range []masc.Storage{masc.StorageRecompute, masc.StorageDisk, masc.StorageMASC} {
		storage := storage
		b.Run(string(storage), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := masc.Simulate(ds.Ckt, masc.SimOptions{
					Transient:       masc.TransientOptions{TStep: ds.Tran.TStep, TStop: ds.Tran.TStop},
					Storage:         storage,
					DiskBytesPerSec: bench.DefaultDiskBps,
				}, []masc.Objective{node}, ds.Params)
				if err != nil {
					b.Fatal(err)
				}
				if run.Sens == nil {
					b.Fatal("no sensitivities")
				}
			}
		})
	}
}

// BenchmarkParallelCompress is the §6.4 thread-scaling study.
func BenchmarkParallelCompress(b *testing.B) {
	ds, err := workload.Build("MOS_T5", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	tn, err := bench.CaptureTensor(ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		workers := workers
		b.Run(benchName(workers), func(b *testing.B) {
			pair, err := bench.NewCodecPair("masc", tn, workers, false)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(tn.RawBytes())
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureCodec(pair, tn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	const digits = "0123456789"
	if workers < 10 {
		return "workers-" + digits[workers:workers+1]
	}
	return "workers-" + digits[workers/10:workers/10+1] + digits[workers%10:workers%10+1]
}

// BenchmarkAblation measures the MASC design-choice variants.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblation([]string{"add20"}, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatePipeline is the headline end-user operation: transient
// plus adjoint with MASC storage.
func BenchmarkSimulatePipeline(b *testing.B) {
	ds, err := workload.Build("CHIP_01", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := masc.Simulate(ds.Ckt, masc.SimOptions{
			Transient: masc.TransientOptions{TStep: ds.Tran.TStep, TStop: ds.Tran.TStop}, Storage: masc.StorageMASC,
		}, ds.Objectives[:1], ds.Params[:4]); err != nil {
			b.Fatal(err)
		}
	}
}
