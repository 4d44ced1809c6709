package circuit

import (
	"math"
	"math/rand"
	"testing"

	"masc/internal/device"
	"masc/internal/sparse"
)

func newJ(c *Circuit) *sparse.Matrix { return sparse.NewMatrix(c.JPat) }

// buildKitchenSink returns a circuit containing every device type.
func buildKitchenSink(t testing.TB) *Circuit {
	b := NewBuilder()
	b.AddVSource("v1", "in", "0", device.Sin{VA: 1, Freq: 1e3})
	b.AddResistor("r1", "in", "a", 1e3)
	b.AddCapacitor("c1", "a", "0", 1e-9)
	b.AddInductor("l1", "a", "b", 1e-3)
	b.AddResistor("r2", "b", "0", 2e3)
	b.AddDiode("d1", "a", "c")
	b.AddResistor("r3", "c", "0", 1e4)
	q1 := b.AddBJT("q1", "b", "a", "e")
	q1.VAF = 80 // exercise the Early effect in the FD checks
	b.AddResistor("r4", "e", "0", 500)
	b.AddMOSFET("m1", "b", "a", "s")
	m2 := b.AddMOSFET("m2", "c", "b", "s")
	m2.UseMeyer = true
	b.AddResistor("r5", "s", "0", 800)
	b.AddISource("i1", "c", "0", device.DC(1e-4))
	b.AddVCCS("g1", "c", "0", "a", "0", 1e-3)
	b.AddVCVS("e1", "f", "0", "b", "0", 2.0)
	b.AddResistor("r6", "f", "0", 1e3)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func TestAssembleShapes(t *testing.T) {
	ckt := buildKitchenSink(t)
	if ckt.N != 10 { // in,a,b,c,e,s,f + 3 branches (v1, l1, e1)
		t.Fatalf("unknown count = %d, want 10 (%v)", ckt.N, ckt.Names)
	}
	if ckt.GPat.NNZ() == 0 || ckt.CPat.NNZ() == 0 || ckt.JPat.NNZ() < ckt.GPat.NNZ() {
		t.Fatalf("suspicious patterns: %s", ckt)
	}
	if err := ckt.GPat.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ckt.CPat.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ckt.JPat.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ckt.Params()) == 0 {
		t.Fatal("no parameters registered")
	}
}

// evalAt evaluates f and q at state x (fresh buffers).
func evalAt(ckt *Circuit, x []float64, tm float64) (f, q []float64) {
	e := NewEval(ckt)
	e.Run(x, tm)
	f = append([]float64(nil), e.F...)
	q = append([]float64(nil), e.Q...)
	return
}

// TestJacobianMatchesFiniteDifference verifies G = ∂f/∂x and C = ∂q/∂x for
// the full device zoo at random operating points.
func TestJacobianMatchesFiniteDifference(t *testing.T) {
	ckt := buildKitchenSink(t)
	rng := rand.New(rand.NewSource(12))
	e := NewEval(ckt)
	for trial := 0; trial < 12; trial++ {
		x := make([]float64, ckt.N)
		for i := range x {
			x[i] = 0.8 * rng.NormFloat64() // keep junctions in a sane range
		}
		tm := rng.Float64() * 1e-3
		e.Run(x, tm)
		gd := e.G.Dense()
		cd := e.C.Dense()
		const h = 1e-7
		for j := 0; j < ckt.N; j++ {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[j] += h
			xm[j] -= h
			fp, qp := evalAt(ckt, xp, tm)
			fm, qm := evalAt(ckt, xm, tm)
			for i := 0; i < ckt.N; i++ {
				dfd := (fp[i] - fm[i]) / (2 * h)
				dqd := (qp[i] - qm[i]) / (2 * h)
				scale := math.Max(1, math.Abs(dfd))
				if diff := math.Abs(gd[i][j] - dfd); diff > 2e-4*scale {
					t.Fatalf("trial %d: G[%d][%d] = %g, FD %g (diff %g)", trial, i, j, gd[i][j], dfd, diff)
				}
				scaleQ := math.Max(1e-9, math.Abs(dqd))
				if diff := math.Abs(cd[i][j] - dqd); diff > 1e-3*scaleQ {
					t.Fatalf("trial %d: C[%d][%d] = %g, FD %g", trial, i, j, cd[i][j], dqd)
				}
			}
		}
	}
}

// TestParamSensMatchesFiniteDifference verifies ∂f/∂p and ∂q/∂p for every
// registered parameter against central differences.
func TestParamSensMatchesFiniteDifference(t *testing.T) {
	ckt := buildKitchenSink(t)
	rng := rand.New(rand.NewSource(99))
	e := NewEval(ckt)
	x := make([]float64, ckt.N)
	for i := range x {
		x[i] = 0.6 * rng.NormFloat64()
	}
	tm := 3e-4
	acc := device.NewSensAccum(ckt.N)
	for pi, p := range ckt.Params() {
		acc.Reset()
		e.ParamSens(pi, x, tm, acc)
		dfdp := acc.DFdp
		dqdp := acc.DQdp

		v0 := p.Get()
		// Relative step: large enough to beat cancellation for tiny
		// parameters (Is ~ 1e-14 enters f linearly, so a big relative
		// step is harmless there).
		h := math.Abs(v0) * 1e-4
		if math.Abs(v0) < 1e-6 {
			// Tiny parameters (Is, junction caps) enter f and q linearly,
			// so a huge relative step is exact and beats cancellation.
			h = math.Abs(v0) * 1e3
		}
		if h == 0 {
			h = 1e-9
		}
		p.Set(v0 + h)
		fp, qp := evalAt(ckt, x, tm)
		p.Set(v0 - h)
		fm, qm := evalAt(ckt, x, tm)
		p.Set(v0)
		for i := 0; i < ckt.N; i++ {
			dfd := (fp[i] - fm[i]) / (2 * h)
			dqd := (qp[i] - qm[i]) / (2 * h)
			scale := math.Max(math.Abs(dfd), 1e-12)
			if diff := math.Abs(dfdp[i] - dfd); diff > 1e-3*scale+1e-12 {
				t.Fatalf("param %s: dfdp[%d] = %g, FD %g", p.Name, i, dfdp[i], dfd)
			}
			scaleQ := math.Max(math.Abs(dqd), 1e-15)
			if diff := math.Abs(dqdp[i] - dqd); diff > 1e-3*scaleQ+1e-15 {
				t.Fatalf("param %s: dqdp[%d] = %g, FD %g", p.Name, i, dqdp[i], dqd)
			}
		}
	}
}

// TestParamSensDoesNotAllocate pins the reverse sweep's per-parameter loop
// at zero allocations: the device state lives in the Eval, not on the heap.
func TestParamSensDoesNotAllocate(t *testing.T) {
	ckt := buildKitchenSink(t)
	e := NewEval(ckt)
	x := make([]float64, ckt.N)
	for i := range x {
		x[i] = 0.1 * float64(i+1)
	}
	acc := device.NewSensAccum(ckt.N)
	n := len(ckt.Params())
	allocs := testing.AllocsPerRun(20, func() {
		acc.Reset()
		for pi := 0; pi < n; pi++ {
			e.ParamSens(pi, x, 3e-4, acc)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParamSens over %d parameters allocated %.0f times per sweep, want 0", n, allocs)
	}
}

func TestBuildJ(t *testing.T) {
	ckt := buildKitchenSink(t)
	e := NewEval(ckt)
	x := make([]float64, ckt.N)
	for i := range x {
		x[i] = 0.1 * float64(i)
	}
	e.Run(x, 0)
	j := newJ(ckt)
	invH := 1e6
	e.BuildJ(j, invH)
	gd := e.G.Dense()
	cd := e.C.Dense()
	jd := j.Dense()
	for r := 0; r < ckt.N; r++ {
		for c := 0; c < ckt.N; c++ {
			want := gd[r][c] + invH*cd[r][c]
			if diff := math.Abs(jd[r][c] - want); diff > math.Abs(want)*1e-12+1e-12 {
				t.Fatalf("J[%d][%d] = %g, want %g", r, c, jd[r][c], want)
			}
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error building empty circuit")
	}
	b2 := NewBuilder()
	b2.AddResistor("r1", "a", "0", -5)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for negative resistance")
	}
	b3 := NewBuilder()
	b3.AddResistor("r1", "a", "b", 10)
	if _, err := b3.NodeIndex("zzz"); err == nil {
		t.Fatal("expected unknown-node error")
	}
	if idx, err := b3.NodeIndex("a"); err != nil || idx != 0 {
		t.Fatalf("NodeIndex(a) = %d, %v", idx, err)
	}
	if idx, _ := b3.NodeIndex("gnd"); idx != device.Ground {
		t.Fatal("gnd should map to ground")
	}
}

func TestGroundHandling(t *testing.T) {
	// A device entirely to ground must produce a well-formed 1-unknown
	// system when paired with something else.
	b := NewBuilder()
	b.AddResistor("r1", "a", "0", 1e3)
	b.AddCapacitor("c1", "a", "0", 1e-9)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ckt.N != 1 {
		t.Fatalf("N = %d, want 1", ckt.N)
	}
	e := NewEval(ckt)
	e.Run([]float64{2}, 0)
	if got := e.F[0]; math.Abs(got-2e-3) > 1e-12 {
		t.Fatalf("f[0] = %g, want 2e-3", got)
	}
	if got := e.Q[0]; math.Abs(got-2e-9) > 1e-21 {
		t.Fatalf("q[0] = %g, want 2e-9", got)
	}
}

// TestAssembleJMatchesScatterAdd pins the slice-based assembly, bit for bit,
// to the scatter-add the Newton loop has always used (clear, AXPY gw·G, AXPY
// cw·C, a zero weight skipping its pass) — over the DC, backward-Euler and
// trapezoidal weightings and over values where a reordering would show:
// signed zeros, subnormals, cancelling pairs and magnitudes 1e±300.
func TestAssembleJMatchesScatterAdd(t *testing.T) {
	ckt := buildKitchenSink(t)
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -2.2e-308,
		1e300, -1e300, 1e-300, 1, -1, math.Pi}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	weights := [][2]float64{{1, 0}, {1, 1e6}, {0.5, 1e6}, {1, 1 / 3e-7}, {0.5, 1 / 7e-9}, {0, 1}}
	e := NewEval(ckt)
	want, got := newJ(ckt), newJ(ckt)
	for round := 0; round < 200; round++ {
		for k := range e.G.Val {
			e.G.Val[k] = draw()
		}
		for k := range e.C.Val {
			e.C.Val[k] = draw()
			if rng.Intn(8) == 0 {
				// A C entry that cancels the G entry it lands on, so the
				// sum's sign-of-zero depends on the operation order.
				e.C.Val[k] = -e.G.Val[rng.Intn(len(e.G.Val))]
			}
		}
		w := weights[round%len(weights)]
		want.Clear()
		if w[0] != 0 {
			sparse.AXPYInto(want, w[0], e.G, ckt.gToJ)
		}
		if w[1] != 0 {
			sparse.AXPYInto(want, w[1], e.C, ckt.cToJ)
		}
		for k := range got.Val {
			got.Val[k] = math.NaN() // AssembleJ must overwrite, not accumulate
		}
		ckt.AssembleJ(got.Val, e.G.Val, e.C.Val, w[0], w[1])
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("round %d weights %v: J[%d] = %x, scatter-add gives %x",
					round, w, k, math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]))
			}
		}
		e.BuildJWeighted(got, w[0], w[1])
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("round %d weights %v: BuildJWeighted J[%d] differs from the scatter-add", round, w, k)
			}
		}
	}
}

func TestAssembleJRejectsForeignLengths(t *testing.T) {
	ckt := buildKitchenSink(t)
	defer func() {
		if recover() == nil {
			t.Fatal("J-sized values passed as G were accepted")
		}
	}()
	j := make([]float64, ckt.JPat.NNZ())
	ckt.AssembleJ(j, j, make([]float64, ckt.CPat.NNZ()), 1, 1)
}
