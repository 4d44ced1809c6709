package bench

import (
	"slices"
	"testing"

	"masc/internal/adjoint"
	"masc/internal/sparse"
	"masc/internal/transient"
	"masc/internal/workload"
)

// capturedPairs serves every step's captured (G, C) pair and ignores
// Release, so one capture can be swept once per configuration.
type capturedPairs struct{ g, c [][]float64 }

func (p *capturedPairs) Fetch(i int) ([]float64, []float64, error) { return p.g[i], p.c[i], nil }
func (*capturedPairs) Release(int)                                 {}

// adjointFixture captures one forward trajectory of a multi-objective
// dataset, so every benchmark iteration sweeps the same tensor.
func adjointFixture(b *testing.B, name string, scale float64) (*workload.Dataset, *transient.Result, adjoint.JacobianSource) {
	b.Helper()
	ds, err := workload.Build(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	src := &capturedPairs{}
	opt := ds.Tran
	opt.CaptureGC = func(_ int, _ float64, _ []float64, G, C *sparse.Matrix) error {
		src.g = append(src.g, slices.Clone(G.Val))
		src.c = append(src.c, slices.Clone(C.Val))
		return nil
	}
	tr, err := transient.Run(ds.Ckt, opt)
	if err != nil {
		b.Fatal(err)
	}
	return ds, tr, src
}

// BenchmarkSensitivities sweeps the reverse-sweep engine configurations on
// a multi-objective workload: one worker, and the sharded engine at
// increasing worker counts.
func BenchmarkSensitivities(b *testing.B) {
	ds, tr, src := adjointFixture(b, "add20", 0.1)
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial-multiRHS", 1},
		{"workers2", 2},
		{"workers4", 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := adjoint.Sensitivities(ds.Ckt, tr, src, ds.Objectives,
					adjoint.Options{Params: ds.Params, StoredGC: true, Workers: cfg.workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectSensitivities times the forward method, which runs
// serially, with its multi-RHS batch spanning parameters instead of
// objectives.
func BenchmarkDirectSensitivities(b *testing.B) {
	ds, tr, _ := adjointFixture(b, "add20", 0.1)
	b.Run("serial-multiRHS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := adjoint.DirectSensitivities(ds.Ckt, tr, ds.Objectives, adjoint.Options{Params: ds.Params})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
