// Integrator study: the same sensitivity analysis under backward Euler,
// the trapezoidal rule, and LTE-adaptive stepping. Each scheme produces a
// *different* discretization — so their sensitivities differ by O(h) or
// O(h²) — but within one scheme every Jacobian storage strategy is exact,
// and refining the step shows the schemes converging to each other.
package main

import (
	"fmt"
	"log"

	"masc"
)

func build() (*masc.Circuit, masc.Objective, error) {
	b := masc.NewBuilder()
	b.AddVSource("vin", "in", "0", masc.Sin{VA: 3, Freq: 5e3})
	b.AddDiode("d1", "in", "peak")
	b.AddCapacitor("cp", "peak", "0", 2e-8)
	b.AddResistor("rp", "peak", "0", 50e3)
	b.AddResistor("rf", "peak", "out", 10e3)
	b.AddCapacitor("cf", "out", "0", 1e-8)
	ckt, err := b.Build()
	if err != nil {
		return nil, masc.Objective{}, err
	}
	out, err := b.NodeIndex("out")
	return ckt, masc.Objective{Name: "v(out)", Node: out, Weight: 1}, err
}

func main() {
	type variant struct {
		label    string
		method   masc.Method
		adaptive bool
		step     float64
	}
	variants := []variant{
		{"backward-euler h=2µs", masc.MethodBE, false, 2e-6},
		{"backward-euler h=0.5µs", masc.MethodBE, false, 5e-7},
		{"trapezoidal   h=2µs", masc.MethodTrap, false, 2e-6},
		{"adaptive BE   h₀=2µs", masc.MethodBE, true, 2e-6},
	}
	fmt.Printf("%-24s %8s %14s %14s %10s\n", "integrator", "steps", "v(out) final", "dO/d(cp.c)", "tensor CR")
	for _, v := range variants {
		ckt, obj, err := build()
		if err != nil {
			log.Fatal(err)
		}
		opt := masc.SimOptions{
			Transient: masc.TransientOptions{TStep: v.step, TStop: 6e-4,
				Method: v.method, Adaptive: v.adaptive},
			Storage: masc.StorageMASC,
		}
		run, err := masc.Simulate(ckt, opt, []masc.Objective{obj}, nil)
		if err != nil {
			log.Fatal(err)
		}
		// dO/d(cp.c) is parameter index of cp: find it by name.
		var dcp float64
		for k, p := range ckt.Params() {
			if p.Name == "cp.c" {
				dcp = run.Sens.DOdp[0][k]
			}
		}
		final := run.Tran.States[len(run.Tran.States)-1][obj.Node]
		cr := float64(run.TensorStats.RawBytes) / float64(run.TensorStats.StoredBytes)
		fmt.Printf("%-24s %8d %14.9f %14.6e %9.1fx\n", v.label, run.Tran.Steps(), final, dcp, cr)
	}
	fmt.Println("\nfine-step BE and trapezoidal agree to O(h²); adaptive BE spends")
	fmt.Println("steps only where the rectifier switches — all with compressed tensors.")
}
