package transient

import "masc/internal/circuit"

// LadderDC solves the DC operating point by the gmin ladder alone, from the
// zero state on a fresh solver: the fallback of DCOperatingPoint, and its
// only path before it tried plain Newton first.
func LadderDC(ckt *circuit.Circuit, t float64, opt Options) ([]float64, Stats, error) {
	var st Stats
	x := make([]float64, ckt.N)
	err := newSolver(ckt, opt.withDefaults(), &st).gminLadder(t, x)
	return x, st, err
}

// DCPath is DCOperatingPoint that reports whether it needed the gmin
// ladder.
func DCPath(ckt *circuit.Circuit, t float64, opt Options) ([]float64, bool, error) {
	return newSolver(ckt, opt.withDefaults(), new(Stats)).dc(t)
}

// WithDefaults is opt with the defaults the solver applies.
func WithDefaults(opt Options) Options { return opt.withDefaults() }
