// Netlist deck: drive the whole pipeline from SPICE text — the workflow of
// a user who has a netlist rather than Go code.
package main

import (
	"fmt"
	"log"
	"strings"

	"masc"
)

const deck = `common-emitter amplifier
.model qfast NPN IS=1e-15 BF=120
VCC vcc 0 DC 9
VIN sig 0 SIN(0 10m 50k)
RS sig base 1k
RB1 vcc base 68k
RB2 base 0 12k
RC vcc col 3.3k
RE em 0 680
CE em 0 10u
Q1 col base em qfast
CL col 0 10p
.tran 0.2u 60u
.obj v(col) v(em)
.end
`

func main() {
	d, err := masc.ParseNetlist(strings.NewReader(deck))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.Title)

	run, err := masc.Simulate(d.Ckt, masc.SimOptions{
		Transient: masc.TransientOptions{TStep: d.Tran.TStep, TStop: d.Tran.TStop},
		Storage:   masc.StorageMASC,
	}, d.Objectives, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("steps: %d  tensor CR: %.1f\n", run.Tran.Steps(),
		float64(run.TensorStats.RawBytes)/float64(run.TensorStats.StoredBytes))
	for o, obj := range d.Objectives {
		fmt.Printf("\nsensitivities of %s:\n", obj.Name)
		for k, p := range d.Ckt.Params() {
			fmt.Printf("  %-14s %+.4e\n", p.Name, run.Sens.DOdp[o][k])
		}
	}
}
