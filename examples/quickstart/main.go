// Quickstart: build a small filter programmatically, run the MASC
// sensitivity pipeline, and print what came out.
package main

import (
	"fmt"
	"log"

	"masc"
)

func main() {
	// A two-pole RC lowpass driven by a 5 kHz sine.
	b := masc.NewBuilder()
	b.AddVSource("vin", "in", "0", masc.Sin{VA: 1, Freq: 5e3})
	b.AddResistor("r1", "in", "n1", 1e3)
	b.AddCapacitor("c1", "n1", "0", 1e-8)
	b.AddResistor("r2", "n1", "out", 2e3)
	b.AddCapacitor("c2", "out", "0", 1e-8)
	ckt, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	out, err := b.NodeIndex("out")
	if err != nil {
		log.Fatal(err)
	}

	// Simulate 0.4 ms with the Jacobian tensor held as MASC-compressed
	// blobs, then compute dV(out)/dp for every R and C.
	run, err := masc.Simulate(ckt, masc.SimOptions{
		Transient: masc.TransientOptions{TStep: 2e-6, TStop: 4e-4},
		Storage:   masc.StorageMASC,
	}, []masc.Objective{{Name: "v(out)", Node: out, Weight: 1}}, nil)
	if err != nil {
		log.Fatal(err)
	}

	final := run.Tran.States[len(run.Tran.States)-1][out]
	fmt.Printf("simulated %d steps; final v(out) = %.6f V\n", run.Tran.Steps(), final)
	st := run.TensorStats
	fmt.Printf("jacobian tensor: %d B raw → %d B compressed (%.1fx)\n",
		st.RawBytes, st.StoredBytes, float64(st.RawBytes)/float64(st.StoredBytes))
	fmt.Println("sensitivities of v(out) at t = 0.4 ms:")
	for k, p := range ckt.Params() {
		fmt.Printf("  dO/d(%-10s) = %+.4e\n", p.Name, run.Sens.DOdp[0][k])
	}
}
