package transient

import (
	"math"
	"testing"

	"masc/internal/circuit"
	"masc/internal/sparse"
)

// referenceJ is the system Jacobian of step i as the forward pass has always
// formed it for capture: evaluate at the converged state, BuildJ (weighted
// for the trapezoidal rule), gmin on the DC step.
func referenceJ(ckt *circuit.Circuit, res *Result, i int, gmin float64) []float64 {
	ev := circuit.NewEval(ckt)
	ev.Run(res.States[i], res.Times[i])
	j := sparse.NewMatrix(ckt.JPat)
	switch {
	case i == 0:
		ev.BuildJ(j, 0)
		ckt.AddGmin(j, gmin)
	case res.Method == MethodTrap:
		ev.BuildJWeighted(j, 0.5, 1/res.Hs[i])
	default:
		ev.BuildJ(j, 1/res.Hs[i])
	}
	return j.Val
}

func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: [%d] = %x, want %x", label, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
		}
	}
}

// TestCaptureLayouts runs one nonlinear fixture three ways — Capture alone
// (the (J, C) contract), CaptureGC alone, and both — over both integrators, a
// default and a non-default gmin, and a time axis whose last step is short.
// A Capture-only caller must see exactly the J bits it always did; the
// CaptureGC caller's pair, put through Result.AssembleJ, must give the same J;
// and the hooks must not change the trajectory.
func TestCaptureLayouts(t *testing.T) {
	ckt := buildDiodeRC(t)
	for _, method := range []Method{MethodBE, MethodTrap} {
		for _, gmin := range []float64{0, 1e-6} {
			base := Options{TStop: 1.03e-4, TStep: 4e-6, Method: method, Gmin: gmin}
			wantGmin := gmin
			if wantGmin == 0 {
				wantGmin = DefaultGmin
			}
			type pair struct{ a, c []float64 }
			var jOnly, gc, jBoth, gcBoth []pair
			keep := func(dst *[]pair) func(int, float64, []float64, *sparse.Matrix, *sparse.Matrix) error {
				return func(step int, _ float64, _ []float64, A, C *sparse.Matrix) error {
					if step != len(*dst) {
						t.Fatalf("capture saw step %d, expected %d", step, len(*dst))
					}
					*dst = append(*dst, pair{append([]float64(nil), A.Val...), append([]float64(nil), C.Val...)})
					return nil
				}
			}
			plain, err := Run(ckt, base)
			if err != nil {
				t.Fatal(err)
			}
			o := base
			o.Capture = keep(&jOnly)
			resJ, err := Run(ckt, o)
			if err != nil {
				t.Fatal(err)
			}
			o = base
			o.CaptureGC = keep(&gc)
			resGC, err := Run(ckt, o)
			if err != nil {
				t.Fatal(err)
			}
			o.Capture = keep(&jBoth)
			o.CaptureGC = keep(&gcBoth)
			if _, err := Run(ckt, o); err != nil {
				t.Fatal(err)
			}

			if resJ.Gmin != wantGmin || resGC.Gmin != wantGmin {
				t.Fatalf("%s gmin %g: Result.Gmin = %g / %g, want %g", method, gmin, resJ.Gmin, resGC.Gmin, wantGmin)
			}
			n := plain.Steps()
			if len(jOnly) != n+1 || len(gc) != n+1 || len(jBoth) != n+1 || len(gcBoth) != n+1 {
				t.Fatalf("%s: captures saw %d/%d/%d/%d steps, want %d", method,
					len(jOnly), len(gc), len(jBoth), len(gcBoth), n+1)
			}
			distinctH := map[float64]bool{}
			jBuf := make([]float64, ckt.JPat.NNZ())
			for i := 0; i <= n; i++ {
				requireSameBits(t, "state (Capture run)", resJ.States[i], plain.States[i])
				requireSameBits(t, "state (CaptureGC run)", resGC.States[i], plain.States[i])
				distinctH[plain.Hs[i]] = true

				want := referenceJ(ckt, plain, i, wantGmin)
				requireSameBits(t, "Capture-only J", jOnly[i].a, want)
				requireSameBits(t, "Capture J beside CaptureGC", jBoth[i].a, want)
				requireSameBits(t, "CaptureGC G with and without Capture", gcBoth[i].a, gc[i].a)
				requireSameBits(t, "C across hooks", gc[i].c, jOnly[i].c)
				if len(gc[i].a) != ckt.GPat.NNZ() {
					t.Fatalf("CaptureGC handed %d G values, GPat has %d", len(gc[i].a), ckt.GPat.NNZ())
				}
				resGC.AssembleJ(ckt, i, jBuf, gc[i].a, gc[i].c)
				requireSameBits(t, "J assembled from the captured pair", jBuf, want)
			}
			if len(distinctH) < 3 { // 0 at DC, the base step, the short last step
				t.Fatalf("fixture did not vary h: %v", distinctH)
			}
		}
	}
}

// TestCaptureHandsTheRecordedState: the x a capture hook receives is the
// Result's own array for the step — not the solver's working vector — so a
// store may keep a reference and read it after the run, as it was.
func TestCaptureHandsTheRecordedState(t *testing.T) {
	ckt := buildDiodeRC(t)
	var kept [][]float64
	o := Options{TStop: 1.03e-4, TStep: 4e-6}
	o.CaptureGC = func(step int, _ float64, x []float64, _, _ *sparse.Matrix) error {
		kept = append(kept, x)
		return nil
	}
	res, err := Run(ckt, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(res.States) {
		t.Fatalf("%d captures, %d states", len(kept), len(res.States))
	}
	for i, x := range kept {
		if &x[0] != &res.States[i][0] {
			t.Fatalf("step %d: the hook was handed an array that is not Result.States[%d]", i, i)
		}
	}
}

// TestJWeightsHandAssembledResult: a Result built by hand (no Gmin) means the
// solver default, like an empty Method means backward Euler.
func TestJWeightsHandAssembledResult(t *testing.T) {
	r := &Result{Hs: []float64{0, 2e-6}}
	if gw, cw, gmin := r.JWeights(0); gw != 1 || cw != 0 || gmin != DefaultGmin {
		t.Fatalf("step 0 weights = %g, %g, %g", gw, cw, gmin)
	}
	if gw, cw, gmin := r.JWeights(1); gw != 1 || cw != 1/2e-6 || gmin != 0 {
		t.Fatalf("step 1 weights = %g, %g, %g", gw, cw, gmin)
	}
	r.Method, r.Gmin = MethodTrap, 1e-9
	if gw, _, gmin := r.JWeights(1); gw != 0.5 || gmin != 0 {
		t.Fatalf("trapezoidal step 1 weights = %g, gmin %g", gw, gmin)
	}
	if _, _, gmin := r.JWeights(0); gmin != 1e-9 {
		t.Fatalf("recorded gmin not used: %g", gmin)
	}
}
