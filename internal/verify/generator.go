// Package verify implements the differential verification harness for the
// MASC pipeline: seeded randomized circuits are run through the full
// transient+adjoint flow under every Jacobian storage strategy, and the
// results are required to be bit-identical to the dense in-RAM oracle and
// consistent with the direct (forward) method and finite differences.
//
// The harness exists because MASC's whole value proposition is that the
// compressed tensor store is *lossless*: if Algorithm 2's reverse sweep
// sees even one perturbed Jacobian bit, the computed sensitivities are
// silently wrong. Every codec or store change must survive this gauntlet.
package verify

import (
	"fmt"
	"math"
	"math/rand"

	"masc"
)

// Families enumerates the circuit families the generator cycles through.
// Every fleet of ≥ len(Families) cases exercises each family at least once.
var Families = []string{
	"rc-ladder",
	"rlc-mesh",
	"rlc-random",
	"diode-clipper",
	"bjt-chain",
	"mos-chain",
	"mixed",
}

// Case is one deterministic randomized verification circuit. Build
// reconstructs the circuit afresh on every call from Seed alone, so
// differential runs never share mutable device or matrix state.
type Case struct {
	Index  int
	Seed   int64
	Family string
}

// Cases derives n case seeds from one master seed. Families are assigned
// round-robin so every fleet covers the full device-model mix; everything
// else (topology, element values, waveforms, timestep schedule, objectives)
// is drawn from the per-case seed inside Build.
func Cases(n int, seed int64) []*Case {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Case, n)
	for i := range out {
		out[i] = &Case{
			Index:  i,
			Seed:   rng.Int63(),
			Family: Families[i%len(Families)],
		}
	}
	return out
}

// Name labels the case for reports.
func (c *Case) Name() string { return fmt.Sprintf("case%03d/%s", c.Index, c.Family) }

// Built is a freshly constructed verification circuit with its analysis
// configuration. SimBase carries the time axis and tightened solver
// tolerances; the caller fills in the storage strategy under test.
type Built struct {
	Ckt        *masc.Circuit
	Objectives []masc.Objective
	SimBase    masc.SimOptions
	Steps      int
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// randWave draws a source waveform whose dynamics resolve on the given
// time axis (frequencies are expressed in whole cycles per TStop).
func randWave(rng *rand.Rand, tstop float64) masc.Waveform {
	switch rng.Intn(4) {
	case 0:
		return masc.DC(0.3 + rng.Float64()*1.2)
	case 1:
		cycles := float64(1 + rng.Intn(4))
		return masc.Sin{
			VO:   rng.Float64() * 0.3,
			VA:   0.3 + rng.Float64()*0.9,
			Freq: cycles / tstop,
			TD:   rng.Float64() * 0.1 * tstop,
		}
	case 2:
		return masc.Pulse{
			V1: 0,
			V2: 0.4 + rng.Float64(),
			TD: 0.05 * tstop,
			TR: (0.05 + rng.Float64()*0.1) * tstop,
			TF: (0.05 + rng.Float64()*0.1) * tstop,
			PW: (0.2 + rng.Float64()*0.2) * tstop,
			PE: tstop,
		}
	default:
		k := 3 + rng.Intn(3)
		ts := make([]float64, k)
		vs := make([]float64, k)
		for i := range ts {
			ts[i] = tstop * float64(i) / float64(k-1)
			vs[i] = rng.Float64() * 1.2
		}
		return masc.PWL{T: ts, V: vs}
	}
}

// Build generates the circuit. The same Case always builds the same
// circuit, bit for bit.
func (c *Case) Build() (*Built, error) {
	rng := rand.New(rand.NewSource(c.Seed))

	steps := 15 + rng.Intn(40)
	tstep := logUniform(rng, 1e-7, 1e-5)
	tstop := float64(steps) * tstep

	b := masc.NewBuilder()
	var probe []string // node names eligible as objective probes

	switch c.Family {
	case "rc-ladder":
		probe = genRCLadder(rng, b, tstop)
	case "rlc-mesh":
		probe = genRLCMesh(rng, b, tstop)
	case "rlc-random":
		probe = genRLCRandom(rng, b, tstop)
	case "diode-clipper":
		probe = genDiodeClipper(rng, b, tstop)
	case "bjt-chain":
		probe = genBJTChain(rng, b, tstop)
	case "mos-chain":
		probe = genMOSChain(rng, b, tstop)
	case "mixed":
		probe = genMixed(rng, b, tstop)
	default:
		return nil, fmt.Errorf("verify: unknown family %q", c.Family)
	}

	ckt, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %w", c.Name(), err)
	}

	// 1–3 objectives across the anchored/mid-step/integral classes.
	nObj := 1 + rng.Intn(3)
	objs := make([]masc.Objective, 0, nObj)
	for len(objs) < nObj {
		name := probe[rng.Intn(len(probe))]
		node, err := b.NodeIndex(name)
		if err != nil {
			return nil, fmt.Errorf("verify: %s: probe %q: %w", c.Name(), name, err)
		}
		o := masc.Objective{
			Name:   fmt.Sprintf("v(%s)#%d", name, len(objs)),
			Node:   node,
			Weight: 1 + rng.Float64(),
		}
		switch rng.Intn(3) {
		case 1:
			o.Step = 1 + rng.Intn(steps) // mid-trajectory anchor
		case 2:
			o.Integral = true
		}
		objs = append(objs, o)
	}

	method := masc.MethodBE
	if rng.Intn(10) < 3 {
		method = masc.MethodTrap
	}
	opt := masc.SimOptions{
		Transient: masc.TransientOptions{
			TStep:  tstep,
			TStop:  tstop,
			Method: method,
			// Tight Newton tolerances: the finite-difference cross-check
			// differentiates the *discrete* solution, so solver noise must
			// sit well below the FD signal.
			AbsTol:    1e-13,
			RelTol:    1e-11,
			MaxNewton: 200,
		},
	}
	return &Built{Ckt: ckt, Objectives: objs, SimBase: opt, Steps: steps}, nil
}

// genRCLadder: source → R/C ladder of random length with randomly scattered
// shunt resistors.
func genRCLadder(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	n := 3 + rng.Intn(12)
	b.AddVSource("vin", "n0", "0", randWave(rng, tstop))
	probe := []string{"n0"}
	for i := 1; i <= n; i++ {
		prev := fmt.Sprintf("n%d", i-1)
		cur := fmt.Sprintf("n%d", i)
		b.AddResistor(fmt.Sprintf("r%d", i), prev, cur, logUniform(rng, 100, 1e4))
		// Time constants within a decade of the step so the trajectory
		// actually moves and the C matrix carries weight.
		b.AddCapacitor(fmt.Sprintf("c%d", i), cur, "0", logUniform(rng, 1e-10, 1e-8))
		if rng.Intn(3) == 0 {
			b.AddResistor(fmt.Sprintf("rg%d", i), cur, "0", logUniform(rng, 1e3, 1e5))
		}
		probe = append(probe, cur)
	}
	return probe
}

// genRLCMesh: a rows×cols resistive grid with shunt caps and a few series
// inductors (branch-current unknowns).
func genRLCMesh(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	rows, cols := 2+rng.Intn(3), 2+rng.Intn(3)
	name := func(r, c int) string { return fmt.Sprintf("m%d_%d", r, c) }
	b.AddVSource("vin", name(0, 0), "0", randWave(rng, tstop))
	var probe []string
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			probe = append(probe, name(r, c))
			if c+1 < cols {
				b.AddResistor(fmt.Sprintf("rh%d_%d", r, c), name(r, c), name(r, c+1),
					logUniform(rng, 100, 5e3))
			}
			if r+1 < rows {
				if rng.Intn(4) == 0 {
					b.AddInductor(fmt.Sprintf("lv%d_%d", r, c), name(r, c), name(r+1, c),
						logUniform(rng, 1e-7, 1e-5))
				} else {
					b.AddResistor(fmt.Sprintf("rv%d_%d", r, c), name(r, c), name(r+1, c),
						logUniform(rng, 100, 5e3))
				}
			}
			b.AddCapacitor(fmt.Sprintf("cg%d_%d", r, c), name(r, c), "0",
				logUniform(rng, 1e-10, 1e-8))
		}
	}
	// Anchor the far corner so every row has a DC path.
	b.AddResistor("rload", name(rows-1, cols-1), "0", logUniform(rng, 1e3, 1e4))
	return probe
}

// genRLCRandom: a random connected linear graph — every node joins the
// backbone through an earlier node, guaranteeing a DC path to the source.
func genRLCRandom(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	n := 4 + rng.Intn(14)
	b.AddVSource("vin", "n0", "0", randWave(rng, tstop))
	probe := []string{"n0"}
	for i := 1; i < n; i++ {
		cur := fmt.Sprintf("n%d", i)
		parent := fmt.Sprintf("n%d", rng.Intn(i))
		b.AddResistor(fmt.Sprintf("rt%d", i), parent, cur, logUniform(rng, 100, 1e4))
		b.AddCapacitor(fmt.Sprintf("cg%d", i), cur, "0", logUniform(rng, 1e-10, 1e-8))
		probe = append(probe, cur)
	}
	// Extra cross edges: resistors, coupling caps, the odd inductor to
	// ground, and a small-gm VCCS for unsymmetric pattern structure.
	extra := n / 2
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		a, z := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j)
		switch rng.Intn(4) {
		case 0:
			b.AddResistor(fmt.Sprintf("rx%d", e), a, z, logUniform(rng, 500, 2e4))
		case 1:
			b.AddCapacitor(fmt.Sprintf("cx%d", e), a, z, logUniform(rng, 1e-11, 1e-9))
		case 2:
			// Never hang an inductor off the source-driven node n0: at DC
			// it would short the voltage source and make MNA singular.
			if i == 0 {
				continue
			}
			b.AddInductor(fmt.Sprintf("lx%d", e), a, "0", logUniform(rng, 1e-6, 1e-4))
		default:
			// gm small enough that every feedback loop through the
			// resistor range stays below unity gain — keeps the random
			// graph's DC solvable for any topology draw.
			b.AddVCCS(fmt.Sprintf("gx%d", e), a, "0", z, "0", logUniform(rng, 1e-7, 3e-6))
		}
	}
	return probe
}

// genDiodeClipper: cascaded RC stages with diode clamps to ground — mild
// exponential nonlinearity on every stage.
func genDiodeClipper(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	n := 2 + rng.Intn(5)
	b.AddVSource("vin", "n0", "0", randWave(rng, tstop))
	probe := []string{"n0"}
	for i := 1; i <= n; i++ {
		prev := fmt.Sprintf("n%d", i-1)
		cur := fmt.Sprintf("n%d", i)
		b.AddResistor(fmt.Sprintf("r%d", i), prev, cur, logUniform(rng, 500, 5e3))
		b.AddCapacitor(fmt.Sprintf("c%d", i), cur, "0", logUniform(rng, 1e-10, 1e-8))
		b.AddDiode(fmt.Sprintf("d%d", i), cur, "0")
		if rng.Intn(2) == 0 {
			b.AddResistor(fmt.Sprintf("rg%d", i), cur, "0", logUniform(rng, 2e3, 2e4))
		}
		probe = append(probe, cur)
	}
	return probe
}

// genBJTChain: common-emitter stages with randomized bias dividers, like
// workload.BJTChain but with per-case element values.
func genBJTChain(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	stages := 1 + rng.Intn(3)
	b.AddVSource("vcc", "vcc", "0", masc.DC(3+rng.Float64()*2))
	b.AddVSource("vin", "in", "0", randWave(rng, tstop))
	in := "in"
	probe := []string{"in"}
	for s := 0; s < stages; s++ {
		base := fmt.Sprintf("b%d", s)
		coll := fmt.Sprintf("q%d", s)
		emit := fmt.Sprintf("e%d", s)
		b.AddResistor(fmt.Sprintf("rin%d", s), in, base, logUniform(rng, 1e3, 1e4))
		b.AddResistor(fmt.Sprintf("rb1_%d", s), "vcc", base, logUniform(rng, 2e4, 1e5))
		b.AddResistor(fmt.Sprintf("rb2_%d", s), base, "0", logUniform(rng, 5e3, 3e4))
		b.AddResistor(fmt.Sprintf("rc%d", s), "vcc", coll, logUniform(rng, 1e3, 5e3))
		b.AddResistor(fmt.Sprintf("re%d", s), emit, "0", logUniform(rng, 200, 1e3))
		b.AddBJT(fmt.Sprintf("t%d", s), coll, base, emit)
		b.AddCapacitor(fmt.Sprintf("cl%d", s), coll, "0", logUniform(rng, 1e-10, 1e-9))
		probe = append(probe, base, coll, emit)
		in = coll
	}
	return probe
}

// genMOSChain: NMOS common-source stages with resistive loads.
func genMOSChain(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	stages := 1 + rng.Intn(3)
	vdd := 2.5 + rng.Float64()*2
	b.AddVSource("vdd", "vdd", "0", masc.DC(vdd))
	b.AddVSource("vin", "g0", "0", masc.Sin{
		VO:   vdd / 2,
		VA:   0.2 + rng.Float64()*0.4,
		Freq: float64(1+rng.Intn(3)) / tstop,
	})
	gate := "g0"
	probe := []string{"g0"}
	for s := 0; s < stages; s++ {
		drain := fmt.Sprintf("d%d", s)
		b.AddResistor(fmt.Sprintf("rl%d", s), "vdd", drain, logUniform(rng, 2e3, 2e4))
		b.AddMOSFET(fmt.Sprintf("m%d", s), drain, gate, "0")
		b.AddCapacitor(fmt.Sprintf("cl%d", s), drain, "0", logUniform(rng, 1e-11, 1e-9))
		// Bias the next gate off a divider from the drain so cascaded
		// stages stay in a solvable region.
		next := fmt.Sprintf("g%d", s+1)
		b.AddResistor(fmt.Sprintf("rd%d", s), drain, next, logUniform(rng, 1e3, 1e4))
		b.AddResistor(fmt.Sprintf("rg%d", s), next, "0", logUniform(rng, 1e4, 1e5))
		probe = append(probe, drain, next)
		gate = next
	}
	return probe
}

// genMixed: an RC ladder spine with diodes, a VCCS and a VCVS hung off it —
// the widest single-circuit device mix.
func genMixed(rng *rand.Rand, b *masc.Builder, tstop float64) []string {
	probe := genRCLadder(rng, b, tstop)
	n := len(probe)
	pick := func() string { return probe[rng.Intn(n)] }
	// probe[1:] — a diode clamped straight across the voltage source has no
	// series resistance to limit e^{v/vt}; DC Newton cannot converge on it.
	b.AddDiode("dm", probe[1+rng.Intn(n-1)], "0")
	b.AddVCCS("gm", pick(), "0", pick(), "0", logUniform(rng, 1e-7, 3e-6))
	if rng.Intn(2) == 0 {
		b.AddVCVS("em", fmt.Sprintf("nv%d", n), "0", pick(), "0", 0.5+rng.Float64())
		b.AddResistor("rem", fmt.Sprintf("nv%d", n), "0", logUniform(rng, 1e3, 1e4))
	}
	if rng.Intn(2) == 0 {
		// probe[1:] — the source-driven node n0 must not get a DC short.
		b.AddInductor("lm", probe[1+rng.Intn(n-1)], "0", logUniform(rng, 1e-6, 1e-4))
	}
	return probe
}
