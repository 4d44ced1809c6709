package adjoint

import (
	"masc/internal/circuit"
	"masc/internal/transient"
)

// RecomputeSource is the Xyce-style baseline: it rebuilds a step's tensors
// from the stored trajectory by re-running the device evaluations — no
// tensor storage, maximal Jacobian time. The adjoint Timing.Fetch of a run
// over this source is exactly the paper's T_jac.
type RecomputeSource struct {
	ckt *circuit.Circuit
	tr  *transient.Result
	ev  *circuit.Eval
	j   []float64 // Fetch's assembled J; nil until first used
}

// NewRecomputeSource returns a source over the trajectory tr.
func NewRecomputeSource(ckt *circuit.Circuit, tr *transient.Result) *RecomputeSource {
	return &RecomputeSource{ckt: ckt, tr: tr, ev: circuit.NewEval(ckt)}
}

// Pair re-evaluates the circuit at step i's converged state and returns the
// device matrices G_i and C_i — bit for bit what transient.Run handed its
// CaptureGC hook, so it re-seeds a (G, C) store, answers a budgeted chain's
// planned drops and heals a corrupt step. The slices alias the evaluator and
// are valid until the next Pair or Fetch.
func (s *RecomputeSource) Pair(i int) (gVals, cVals []float64, err error) {
	s.ev.Run(s.tr.States[i], s.tr.Times[i])
	return s.ev.G.Val, s.ev.C.Val, nil
}

// Pairs is the source as a JacobianSource of (G, C) pairs, for a sweep run
// with Options.StoredGC.
func (s *RecomputeSource) Pairs() JacobianSource { return pairSource{s} }

type pairSource struct{ *RecomputeSource }

func (p pairSource) Fetch(i int) ([]float64, []float64, error) { return p.Pair(i) }

// Fetch implements JacobianSource in the (J, C) layout: Pair plus the
// trajectory's J assembly, which is what transient.Run's Capture hook
// received.
func (s *RecomputeSource) Fetch(i int) ([]float64, []float64, error) {
	gv, cv, err := s.Pair(i)
	if err != nil {
		return nil, nil, err
	}
	if s.j == nil {
		s.j = make([]float64, s.ckt.JPat.NNZ())
	}
	s.tr.AssembleJ(s.ckt, i, s.j, gv, cv)
	return s.j, cv, nil
}

// Release implements JacobianSource; recomputation holds no per-step state.
func (s *RecomputeSource) Release(int) {}
