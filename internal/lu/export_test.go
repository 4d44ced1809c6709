package lu

// The fixtures and the bit comparison of the package's own tests, for the
// external tests that also factor the generated circuits' Jacobians (package
// lu cannot import the simulator, which imports it).
var (
	RandomSPDish   = randomSPDish
	ReplayFixture  = replayFixture
	Perturbed      = perturbed
	SameFactorBits = sameFactorBits
)
