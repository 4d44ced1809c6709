// RAM storage study: the same sensitivity analysis of a MOS memory array
// under every Jacobian storage strategy the MASC paper compares — the
// reader's own miniature Figure 7. The sensitivities must agree bit-for-
// solver-precision across strategies; the memory footprints must not.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"masc"
)

// buildRAM wires a rows×cols 1T1C array with one word line active at a
// time, like the paper's ram2k workload.
func buildRAM(rows, cols int) (*masc.Circuit, masc.Objective, error) {
	b := masc.NewBuilder()
	b.AddVSource("vdd", "vdd", "0", masc.DC(3))
	for r := 0; r < rows; r++ {
		b.AddVSource(fmt.Sprintf("vwl%d", r), fmt.Sprintf("wl%d", r), "0", masc.Pulse{
			V1: 0, V2: 3,
			TD: float64(r) * 6e-9, TR: 5e-10, TF: 5e-10,
			PW: 4e-9, PE: float64(rows) * 6e-9,
		})
	}
	for c := 0; c < cols; c++ {
		bl := fmt.Sprintf("bl%d", c)
		b.AddResistor(fmt.Sprintf("rbl%d", c), "vdd", bl, 10e3)
		b.AddCapacitor(fmt.Sprintf("cbl%d", c), bl, "0", 5e-14)
		for r := 0; r < rows; r++ {
			cell := fmt.Sprintf("s%d_%d", r, c)
			b.AddMOSFET(fmt.Sprintf("m%d_%d", r, c), bl, fmt.Sprintf("wl%d", r), cell)
			b.AddCapacitor(fmt.Sprintf("cs%d_%d", r, c), cell, "0", 2e-14)
		}
	}
	ckt, err := b.Build()
	if err != nil {
		return nil, masc.Objective{}, err
	}
	node, err := b.NodeIndex("bl0")
	if err != nil {
		return nil, masc.Objective{}, err
	}
	return ckt, masc.Objective{Name: "v(bl0)", Node: node, Weight: 1}, nil
}

func main() {
	ckt, obj, err := buildRAM(8, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ckt)

	base := masc.SimOptions{
		Transient:       masc.TransientOptions{TStep: 1e-10, TStop: 5e-8},
		DiskBytesPerSec: 0.5e9, // the paper's SSD
	}
	strategies := []masc.Storage{
		masc.StorageRecompute, masc.StorageMemory,
		masc.StorageDisk, masc.StorageMASC,
	}
	var ref []float64
	fmt.Printf("%-14s %10s %14s %14s %8s\n", "storage", "time", "stored", "peak-resident", "CR")
	for _, s := range strategies {
		opt := base
		opt.Storage = s
		start := time.Now()
		run, err := masc.Simulate(ckt, opt, []masc.Objective{obj}, nil)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		if ref == nil {
			ref = run.Sens.DOdp[0]
		} else {
			for k := range ref {
				if d := math.Abs(run.Sens.DOdp[0][k] - ref[k]); d > 1e-9*math.Max(1, math.Abs(ref[k])) {
					log.Fatalf("%s: sensitivity %d diverged", s, k)
				}
			}
		}
		st := run.TensorStats
		cr := "-"
		if st.StoredBytes > 0 {
			cr = fmt.Sprintf("%.1f", float64(st.RawBytes)/float64(st.StoredBytes))
		}
		fmt.Printf("%-14s %10v %14d %14d %8s\n", s, el.Round(time.Millisecond),
			st.StoredBytes, st.PeakResident, cr)
	}
	fmt.Println("all strategies produced identical sensitivities ✓")
}
