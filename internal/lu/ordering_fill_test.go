package lu_test

import (
	"errors"
	"fmt"
	"testing"

	"masc/internal/lu"
	"masc/internal/sparse"
	"masc/internal/transient"
	"masc/internal/workload"
)

// midRunJacobian simulates a generated circuit for a few dozen steps and
// returns the Newton matrix of the last one — past the DC point and the
// start-up steps, so the pivots Factor picks are the transient's — and the
// column order the circuit factors it in.
func midRunJacobian(tb testing.TB, name string, scale float64) (*sparse.Matrix, []int32) {
	tb.Helper()
	ds, err := workload.Build(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	opt := ds.Tran
	stop := errors.New("far enough")
	var j *sparse.Matrix
	opt.Capture = func(step int, _ float64, _ []float64, J, _ *sparse.Matrix) error {
		if step < min(40, opt.EstimatedSteps()/2) {
			return nil
		}
		j = J.Clone()
		return stop
	}
	if _, err := transient.Run(ds.Ckt, opt); !errors.Is(err, stop) {
		tb.Fatalf("%s ×%g: %v", name, scale, err)
	}
	return j, ds.Ckt.JPerm()
}

// fillCircuit is a generated circuit at a scale, with the fill
// TestMinDegreeFillCeilings allows Factor on its mid-run Jacobian.
type fillCircuit struct {
	name    string
	scale   float64
	ceiling int // measured; under RCM
}

func (c fillCircuit) String() string { return fmt.Sprintf("%sx%g", c.name, c.scale) }

// fillCircuits are the benchmark's three circuits, then the two worst cases
// of a bandwidth ordering.
var fillCircuits = []fillCircuit{
	{"smult20", 1, 11000}, // 8 974; 87 729
	{"MOS_T7", 2, 11000},  // 9 656; 13 164
	{"RC_01", 1.5, 20000}, // 16 894; 33 294
	{"CHIP_09", 1, 6500},  // 5 469; 188 179
	{"add20", 1, 23000},   // 19 851; 98 421
}

// TestMinDegreeFillCeilings pins the fill of lu.Factor under the circuit's
// column order on the benchmark's three circuits and the two worst cases of
// a bandwidth ordering (a long BJT chain with a supply rail, a wide adder).
// Each ceiling sits 10–30 % above the measured fill (in the table) and far
// below what reverse Cuthill–McKee gave, so a regression of the ordering
// fails here before it shows as a slow benchmark.
func TestMinDegreeFillCeilings(t *testing.T) {
	for _, c := range fillCircuits {
		j, perm := midRunJacobian(t, c.name, c.scale)
		f, err := lu.Factor(j, lu.Options{ColPerm: perm})
		if err != nil {
			t.Fatalf("%s ×%g: %v", c.name, c.scale, err)
		}
		if fill := f.LNNZ() + f.UNNZ(); fill > c.ceiling {
			t.Errorf("%s ×%g: fill %d over a Jacobian of %d nonzeros, ceiling %d",
				c.name, c.scale, fill, j.P.NNZ(), c.ceiling)
		}
	}
}

var orderingSink []int32

// BenchmarkOrdering times the column ordering on the Jacobian patterns of
// the benchmark's three circuits; it runs once per circuit set-up.
func BenchmarkOrdering(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"MOS_T7", 2}, {"smult20", 1}, {"RC_01", 1.5}} {
		ds, err := workload.Build(c.name, c.scale)
		if err != nil {
			b.Fatal(err)
		}
		p := ds.Ckt.JPat
		p.CSC()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				orderingSink = lu.MinDegree(p)
			}
		})
	}
}
