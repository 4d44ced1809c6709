// Rectifier sensitivity: a nonlinear peak detector analysed with both the
// adjoint and the direct method. The adjoint needs one solve per objective
// per step; the direct method needs one per *parameter* per step — on a
// circuit with many parameters and one objective the adjoint wins, which is
// the reason the MASC paper accelerates it.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"masc"
)

func main() {
	b := masc.NewBuilder()
	b.AddVSource("vin", "in", "0", masc.Sin{VA: 5, Freq: 2e3})
	// A diode ladder: each stage rectifies into its own reservoir.
	prev := "in"
	for i := 0; i < 8; i++ {
		n := fmt.Sprintf("s%d", i)
		b.AddDiode(fmt.Sprintf("d%d", i), prev, n)
		b.AddCapacitor(fmt.Sprintf("c%d", i), n, "0", 4.7e-8)
		b.AddResistor(fmt.Sprintf("r%d", i), n, "0", 20e3)
		prev = n
	}
	ckt, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	last, err := b.NodeIndex("s7")
	if err != nil {
		log.Fatal(err)
	}
	obj := masc.Objective{Name: "v(s7)", Node: last, Weight: 1}
	opt := masc.SimOptions{Transient: masc.TransientOptions{TStep: 2e-6, TStop: 2e-3},
		Storage: masc.StorageMASC}

	start := time.Now()
	run, err := masc.Simulate(ckt, opt, []masc.Objective{obj}, nil)
	if err != nil {
		log.Fatal(err)
	}
	adjTime := time.Since(start)

	start = time.Now()
	dir, err := masc.DirectSensitivities(ckt, run.Tran, []masc.Objective{obj}, nil)
	if err != nil {
		log.Fatal(err)
	}
	dirTime := time.Since(start)

	params := ckt.Params()
	fmt.Printf("%d parameters, 1 objective, %d steps\n", len(params), run.Tran.Steps())
	fmt.Printf("adjoint (incl. forward): %v; direct (reverse only): %v\n", adjTime, dirTime)

	worst := 0.0
	for k := range params {
		d := math.Abs(run.Sens.DOdp[0][k] - dir.DOdp[0][k])
		s := math.Max(1, math.Abs(dir.DOdp[0][k]))
		if d/s > worst {
			worst = d / s
		}
	}
	fmt.Printf("max adjoint-vs-direct relative deviation: %.2e\n", worst)

	type pv struct {
		name string
		v    float64
	}
	list := make([]pv, len(params))
	for k := range params {
		list[k] = pv{params[k].Name, run.Sens.DOdp[0][k]}
	}
	sort.Slice(list, func(i, j int) bool { return math.Abs(list[i].v) > math.Abs(list[j].v) })
	fmt.Println("most influential parameters on the last reservoir voltage:")
	for _, e := range list[:6] {
		fmt.Printf("  %-8s %+.4e\n", e.name, e.v)
	}
}
