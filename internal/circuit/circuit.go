// Package circuit assembles device models into the MNA system the
// simulator solves:
//
//	d/dt q(x,p) + f(x,t,p) = 0,   x ∈ ℝᴰ
//
// Assembly discovers the shared sparsity patterns of G = ∂f/∂x and
// C = ∂q/∂x once (the MASC "shared indices"), binds every device stamp to a
// value slot, and precomputes the slot maps that scatter G and C into the
// union pattern of the system Jacobian J = G + C/h.
package circuit

import (
	"fmt"
	"sync"

	"masc/internal/device"
	"masc/internal/lu"
	"masc/internal/sparse"
)

// Circuit is an assembled circuit ready for evaluation.
type Circuit struct {
	N       int // number of unknowns (node voltages + branch currents)
	Devices []device.Device

	// Unknown names, index-aligned; branch unknowns are "i(name)".
	Names []string
	// VoltageUnknown[i] reports whether unknown i is a node voltage (true)
	// or a branch current (false). Newton damping applies to voltages only.
	VoltageUnknown []bool

	GPat, CPat, JPat *sparse.Pattern
	gToJ, cToJ       []int32

	params []Param

	jPermOnce sync.Once
	jPerm     []int32
}

// JPerm returns the fill-reducing minimum-degree column ordering of the
// union Jacobian pattern, computed once per circuit and shared by every
// factorization (transient solves, adjoint sweeps, direct sensitivities).
// It is a pure function of the pattern, so a resumed run factors in the
// order the interrupted one did. Callers must not modify the returned slice.
func (c *Circuit) JPerm() []int32 {
	c.jPermOnce.Do(func() { c.jPerm = lu.MinDegree(c.JPat) })
	return c.jPerm
}

// Param is one adjustable parameter of the assembled circuit.
type Param struct {
	Name  string
	Dev   device.Device
	Local int // index into Dev.Params()
	info  device.ParamInfo
}

// Get returns the current parameter value.
func (p *Param) Get() float64 { return p.info.Get() }

// Set assigns the parameter value.
func (p *Param) Set(v float64) { p.info.Set(v) }

// Params returns the flattened parameter list of all devices, in device
// order. The slice is shared; callers must not modify it.
func (c *Circuit) Params() []Param { return c.params }

// Assemble builds the shared patterns and binds every device. It must be
// called once before Eval.
func assemble(c *Circuit) error {
	pc := &device.PatternCollector{
		G: sparse.NewBuilder(c.N),
		C: sparse.NewBuilder(c.N),
	}
	for _, d := range c.Devices {
		d.Collect(pc)
	}
	// Every unknown gets a structural G diagonal: it carries gmin in DC
	// analysis and guarantees a pivot candidate for floating rows.
	for i := int32(0); i < int32(c.N); i++ {
		pc.G.Add(i, i)
	}
	c.GPat = pc.G.Build()
	c.CPat = pc.C.Build()
	sb := &device.SlotBinder{GPat: c.GPat, CPat: c.CPat}
	for _, d := range c.Devices {
		d.Bind(sb)
	}
	c.JPat, c.gToJ, c.cToJ = sparse.Union(c.GPat, c.CPat)
	for _, d := range c.Devices {
		for li, pi := range d.Params() {
			c.params = append(c.params, Param{Name: pi.Name, Dev: d, Local: li, info: pi})
		}
	}
	return nil
}

// Eval holds the reusable evaluation buffers for one circuit.
type Eval struct {
	ckt *Circuit
	// Outputs of the most recent Run.
	F, Q []float64
	G, C *sparse.Matrix
	st   device.EvalState
	// ps is ParamSens' device state. Devices take it by pointer through an
	// interface, so a local would escape to the heap on every call; it is
	// kept apart from st so a ParamSens between Run and a later read of the
	// outputs cannot disturb Run's view.
	ps device.EvalState
}

// NewEval allocates evaluation buffers for c.
func NewEval(c *Circuit) *Eval {
	return &Eval{
		ckt: c,
		F:   make([]float64, c.N),
		Q:   make([]float64, c.N),
		G:   sparse.NewMatrix(c.GPat),
		C:   sparse.NewMatrix(c.CPat),
	}
}

// Run evaluates f, q, G and C at state x and time t.
func (e *Eval) Run(x []float64, t float64) {
	for i := range e.F {
		e.F[i] = 0
		e.Q[i] = 0
	}
	e.G.Clear()
	e.C.Clear()
	e.st = device.EvalState{X: x, T: t, F: e.F, Q: e.Q, Gv: e.G.Val, Cv: e.C.Val}
	for _, d := range e.ckt.Devices {
		d.Eval(&e.st)
	}
}

// ParamSens adds ∂f/∂p and ∂q/∂p of parameter p (by global index) at state
// x, time t into the accumulator (which is NOT reset first). It allocates
// nothing; like Run, it is not safe for concurrent use on one Eval.
func (e *Eval) ParamSens(p int, x []float64, t float64, acc *device.SensAccum) {
	pr := &e.ckt.params[p]
	e.ps = device.EvalState{X: x, T: t}
	pr.Dev.AddParamSens(pr.Local, &e.ps, acc)
}

// BuildJ assembles J = G + invH·C into j (which must be on JPat), from the
// most recent Run.
func (e *Eval) BuildJ(j *sparse.Matrix, invH float64) {
	e.BuildJWeighted(j, 1, invH)
}

// BuildJWeighted assembles J = gw·G + cw·C into j: gw=1, cw=1/h is the
// backward-Euler Jacobian; gw=1/2, cw=1/h the trapezoidal one.
func (e *Eval) BuildJWeighted(j *sparse.Matrix, gw, cw float64) {
	if j.P != e.ckt.JPat {
		panic("circuit: BuildJ target not on the union pattern")
	}
	e.ckt.AssembleJ(j.Val, e.G.Val, e.C.Val, gw, cw)
}

// AssembleJ writes J = gw·G + cw·C into j (values on JPat) from G values on
// GPat and C values on CPat. It is the one place the system Jacobian is
// formed — by the Newton loop from the evaluator's matrices, and by the
// reverse pass from a stored (G, C) pair — so a J rebuilt from stored values
// is bit-identical to the one the solver factored: clear, scatter gw·G, then
// scatter cw·C, a zero weight skipping its scatter.
func (c *Circuit) AssembleJ(j, gVals, cVals []float64, gw, cw float64) {
	if len(j) != c.JPat.NNZ() || len(gVals) != len(c.gToJ) || len(cVals) != len(c.cToJ) {
		panic("circuit: AssembleJ values not on the circuit's patterns")
	}
	clear(j)
	if gw != 0 {
		for k, v := range gVals {
			j[c.gToJ[k]] += gw * v
		}
	}
	if cw != 0 {
		for k, v := range cVals {
			j[c.cToJ[k]] += cw * v
		}
	}
}

// AddGmin adds g to every structural diagonal of j's G-part. Used by the DC
// solver's gmin stepping.
func (c *Circuit) AddGmin(j *sparse.Matrix, g float64) {
	d := j.P.DiagSlots()
	for i := 0; i < c.N; i++ {
		if d[i] >= 0 {
			j.Val[d[i]] += g
		}
	}
}

// String summarizes the circuit for logs.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{unknowns=%d devices=%d gnnz=%d cnnz=%d jnnz=%d params=%d}",
		c.N, len(c.Devices), c.GPat.NNZ(), c.CPat.NNZ(), c.JPat.NNZ(), len(c.params))
}
