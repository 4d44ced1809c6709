package masc_test

import (
	"fmt"
	"log"
	"math"
	"strings"

	"masc"
)

// ExampleSimulate runs the full pipeline — transient analysis with a
// MASC-compressed Jacobian tensor, then adjoint sensitivities — on a
// two-element lowpass.
func ExampleSimulate() {
	b := masc.NewBuilder()
	b.AddVSource("vin", "in", "0", masc.DC(1))
	b.AddResistor("r1", "in", "out", 1e3)
	b.AddCapacitor("c1", "out", "0", 1e-6)
	ckt, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	out, _ := b.NodeIndex("out")
	run, err := masc.Simulate(ckt, masc.SimOptions{
		Transient: masc.TransientOptions{TStep: 1e-5, TStop: 1e-3}, Storage: masc.StorageMASC,
	}, []masc.Objective{{Name: "v(out)", Node: out, Weight: 1}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	// With a DC source the output is already settled; the source-scale
	// sensitivity is exactly the DC gain of 1.
	fmt.Printf("steps: %d\n", run.Tran.Steps())
	for k, p := range ckt.Params() {
		if p.Name == "vin.scale" {
			fmt.Printf("dO/d(vin.scale) = %.3f\n", run.Sens.DOdp[0][k])
		}
	}
	// Output:
	// steps: 100
	// dO/d(vin.scale) = 1.000
}

// ExampleParseNetlist drives the same pipeline from SPICE text.
func ExampleParseNetlist() {
	deck, err := masc.ParseNetlist(strings.NewReader(`divider
V1 top 0 DC 10
R1 top mid 1k
R2 mid 0 3k
.tran 1u 50u
.obj v(mid)
`))
	if err != nil {
		log.Fatal(err)
	}
	run, err := masc.Simulate(deck.Ckt, masc.SimOptions{
		Transient: masc.TransientOptions{TStep: deck.Tran.TStep, TStop: deck.Tran.TStop}, Storage: masc.StorageRecompute,
	}, deck.Objectives, nil)
	if err != nil {
		log.Fatal(err)
	}
	final := run.Tran.States[len(run.Tran.States)-1][deck.Objectives[0].Node]
	fmt.Printf("v(mid) = %.2f V\n", final)
	// Output:
	// v(mid) = 7.50 V
}

// ExampleRunTransient runs the transient front half alone — useful when
// only waveforms are needed, or as the input to DirectSensitivities.
func ExampleRunTransient() {
	b := masc.NewBuilder()
	b.AddVSource("v1", "top", "0", masc.DC(10))
	b.AddResistor("r1", "top", "mid", 1e3)
	b.AddResistor("r2", "mid", "0", 3e3)
	ckt, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	tr, err := masc.RunTransient(ckt, masc.TransientOptions{TStep: 1e-6, TStop: 2e-5})
	if err != nil {
		log.Fatal(err)
	}
	mid, _ := b.NodeIndex("mid")
	fmt.Printf("steps: %d, v(mid) = %.2f V\n", tr.Steps(), tr.States[tr.Steps()][mid])
	// Output:
	// steps: 20, v(mid) = 7.50 V
}

// ExampleDirectSensitivities cross-checks the adjoint with the forward
// (direct) method: both differentiate the same discrete trajectory, so on
// this divider the gain sensitivity matches to machine precision.
func ExampleDirectSensitivities() {
	b := masc.NewBuilder()
	b.AddVSource("v1", "top", "0", masc.DC(10))
	b.AddResistor("r1", "top", "mid", 1e3)
	b.AddResistor("r2", "mid", "0", 3e3)
	ckt, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	mid, _ := b.NodeIndex("mid")
	objs := []masc.Objective{{Name: "v(mid)", Node: mid, Weight: 1}}
	tr, err := masc.RunTransient(ckt, masc.TransientOptions{TStep: 1e-6, TStop: 2e-5})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := masc.DirectSensitivities(ckt, tr, objs, nil)
	if err != nil {
		log.Fatal(err)
	}
	for k, p := range ckt.Params() {
		if p.Name == "v1.scale" {
			fmt.Printf("dv(mid)/d(v1.scale) = %.3f\n", dir.DOdp[0][k])
		}
	}
	// Output:
	// dv(mid)/d(v1.scale) = 7.500
}

// ExampleSimulate_storageModes shows the property the verification harness
// enforces fleet-wide: the compressed tensor store is lossless, so the
// sensitivities match the dense in-RAM oracle bit for bit.
func ExampleSimulate_storageModes() {
	run := func(storage masc.Storage) []float64 {
		b := masc.NewBuilder()
		b.AddVSource("vin", "in", "0", masc.Sin{VA: 1, Freq: 1e4})
		b.AddResistor("r1", "in", "out", 1e3)
		b.AddCapacitor("c1", "out", "0", 1e-7)
		ckt, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		out, _ := b.NodeIndex("out")
		r, err := masc.Simulate(ckt, masc.SimOptions{
			Transient: masc.TransientOptions{TStep: 1e-6, TStop: 1e-4}, Storage: storage,
		}, []masc.Objective{{Name: "v(out)", Node: out, Weight: 1}}, nil)
		if err != nil {
			log.Fatal(err)
		}
		return r.Sens.DOdp[0]
	}
	dense := run(masc.StorageMemory)
	compressed := run(masc.StorageMASC)
	identical := len(dense) == len(compressed)
	for k := range dense {
		identical = identical && math.Float64bits(dense[k]) == math.Float64bits(compressed[k])
	}
	fmt.Printf("params: %d, bit-identical to dense oracle: %v\n", len(dense), identical)
	// Output:
	// params: 3, bit-identical to dense oracle: true
}
