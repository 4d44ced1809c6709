package verify

import (
	"math"
	"testing"

	"masc/internal/circuit"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// TestAssembleJMatchesSolverAcrossFleet is the property the (G, C) layout
// stands on, over the randomized generator: at every step of every case, the
// J that Result.AssembleJ rebuilds from the captured pair is bit-identical to
// the J the solver handed the (J, C) capture hook and to an independent
// evaluation's BuildJWeighted (+ gmin at the DC step). Each case runs under
// both integrators, a default or non-default gmin, and LTE step control,
// whose rejections and regrowth give h many values within one trajectory.
func TestAssembleJMatchesSolverAcrossFleet(t *testing.T) {
	var steps, cuts int
	for ci, c := range Cases(2*len(Families), 42) {
		for _, method := range []transient.Method{transient.MethodBE, transient.MethodTrap} {
			bt, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			ckt := bt.Ckt
			topt := bt.SimBase.Transient
			topt.Method = method
			// The generator's Newton tolerances are set for finite differences;
			// under LTE control they would pin every step at TStep/128.
			topt.AbsTol, topt.RelTol = 0, 0
			topt.Adaptive = true
			gmin := transient.DefaultGmin
			if ci%2 == 1 {
				gmin = 1e-7
				topt.Gmin = gmin
			}
			var capturedJ, capturedG, capturedC [][]float64
			topt.Capture = func(_ int, _ float64, _ []float64, J, _ *sparse.Matrix) error {
				capturedJ = append(capturedJ, append([]float64(nil), J.Val...))
				return nil
			}
			topt.CaptureGC = func(_ int, _ float64, _ []float64, G, C *sparse.Matrix) error {
				capturedG = append(capturedG, append([]float64(nil), G.Val...))
				capturedC = append(capturedC, append([]float64(nil), C.Val...))
				return nil
			}
			tr, err := transient.Run(ckt, topt)
			if err != nil {
				t.Fatalf("%s %s: %v", c.Name(), method, err)
			}
			steps += tr.Steps()
			cuts += tr.Stats.StepsCut

			ev := circuit.NewEval(ckt)
			ref := sparse.NewMatrix(ckt.JPat)
			got := make([]float64, ckt.JPat.NNZ())
			for i := 0; i <= tr.Steps(); i++ {
				ev.Run(tr.States[i], tr.Times[i])
				switch {
				case i == 0:
					ev.BuildJWeighted(ref, 1, 0)
					ckt.AddGmin(ref, gmin)
				case method == transient.MethodTrap:
					ev.BuildJWeighted(ref, 0.5, 1/tr.Hs[i])
				default:
					ev.BuildJWeighted(ref, 1, 1/tr.Hs[i])
				}
				tr.AssembleJ(ckt, i, got, capturedG[i], capturedC[i])
				for k := range ref.Val {
					if math.Float64bits(got[k]) != math.Float64bits(ref.Val[k]) {
						t.Fatalf("%s %s step %d (h=%g): assembled J[%d] = %x, BuildJWeighted gives %x",
							c.Name(), method, i, tr.Hs[i], k, math.Float64bits(got[k]), math.Float64bits(ref.Val[k]))
					}
					if math.Float64bits(capturedJ[i][k]) != math.Float64bits(ref.Val[k]) {
						t.Fatalf("%s %s step %d: captured J[%d] = %x, BuildJWeighted gives %x",
							c.Name(), method, i, k, math.Float64bits(capturedJ[i][k]), math.Float64bits(ref.Val[k]))
					}
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatalf("no step was cut in %d steps: h never varied, the fleet proves less than it claims", steps)
	}
	t.Logf("%d steps checked, %d step cuts", steps, cuts)
}
