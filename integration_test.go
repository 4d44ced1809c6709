package masc

// Integration matrix: every workload family × every storage strategy ×
// both integrators must produce identical sensitivities — the end-to-end
// losslessness guarantee of the MASC design.

import (
	"math"
	"testing"

	"masc/internal/workload"
)

func TestIntegrationMatrix(t *testing.T) {
	workloads := []string{"add20", "MOS_T5", "CHIP_01", "RC_02", "ram2k"}
	storages := []Storage{StorageRecompute, StorageMemory, StorageDisk, StorageMASC}
	methods := []Method{MethodBE, MethodTrap}
	for _, name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := workload.Build(name, 0.04)
			if err != nil {
				t.Fatal(err)
			}
			objs := ds.Objectives
			if len(objs) > 3 {
				objs = objs[:3]
			}
			params := ds.Params
			if len(params) > 8 {
				params = params[:8]
			}
			for _, m := range methods {
				m := m
				var ref [][]float64
				for _, st := range storages {
					opt := SimOptions{
						Transient: TransientOptions{TStep: ds.Tran.TStep, TStop: ds.Tran.TStop, Method: m},
						Storage:   st,
					}
					run, err := Simulate(ds.Ckt, opt, objs, params)
					if err != nil {
						t.Fatalf("%s/%s: %v", m, st, err)
					}
					if ref == nil {
						ref = run.Sens.DOdp
						continue
					}
					for o := range ref {
						for k := range ref[o] {
							a, b := run.Sens.DOdp[o][k], ref[o][k]
							if d := math.Abs(a - b); d > 1e-9*math.Max(1, math.Abs(b)) {
								t.Fatalf("%s/%s: obj %d param %d: %g vs %g", m, st, o, k, a, b)
							}
						}
					}
				}
			}
		})
	}
}

// TestIntegrationSensitivityPhysics sanity-checks a few sensitivities with
// known signs on a voltage divider driven through the full pipeline.
func TestIntegrationSensitivityPhysics(t *testing.T) {
	b := NewBuilder()
	b.AddVSource("v1", "top", "0", DC(10))
	b.AddResistor("r1", "top", "mid", 1e3)
	b.AddResistor("r2", "mid", "0", 3e3)
	b.AddCapacitor("c1", "mid", "0", 1e-9)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := b.NodeIndex("mid")
	run, err := Simulate(ckt, SimOptions{Transient: TransientOptions{TStep: 1e-7, TStop: 3e-5}, Storage: StorageMASC},
		[]Objective{{Name: "v(mid)", Node: mid, Weight: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	params := ckt.Params()
	byName := map[string]float64{}
	for k, p := range params {
		byName[p.Name] = run.Sens.DOdp[0][k]
	}
	// v(mid) = 10·r2/(r1+r2) = 7.5 at steady state (reached in ~30τ):
	// dv/dr1 = -10·r2/(r1+r2)² = -1.875e-3; dv/dr2 = +10·r1/(r1+r2)² = 0.625e-3;
	// dv/dscale = 0.75.
	checks := map[string]float64{
		"r1.r":     -1.875e-3,
		"r2.r":     0.625e-3,
		"v1.scale": 7.5,
	}
	for name, want := range checks {
		got := byName[name]
		if math.Abs(got-want) > 2e-3*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: sensitivity %g, want ≈%g", name, got, want)
		}
	}
	if math.Abs(byName["c1.c"]) > 1e-3 {
		t.Fatalf("capacitor sensitivity should vanish at steady state, got %g", byName["c1.c"])
	}
}
