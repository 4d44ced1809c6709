package main

import (
	"fmt"
	"math/rand"
	"sort"

	"masc"
	"masc/internal/workload"
)

// spec is one benchmark workload: a generated circuit at a fixed scale plus
// the storage/parallelism preset the run uses. The presets are expressed
// only through masc.SimOptions so a store refactor behind the facade cannot
// break the end-to-end gate.
type spec struct {
	Name    string
	Dataset string  // internal/workload generator name
	Scale   float64 // generator scale (the paper-size tables are scale 1)
	// options fills the storage preset; the time axis comes from the
	// dataset. tmp is a fresh directory for any spill file; mul is the
	// smoke-test scale multiplier (1 in every real run).
	options func(tmp string, mul float64) masc.SimOptions
}

func serialMASC(string, float64) masc.SimOptions {
	return masc.SimOptions{Storage: masc.StorageMASC}
}

// workloads is the fixed menu. Why each exists is recorded in
// BENCHMARK.json and README.md; the order is the reporting order.
var workloads = []spec{
	{Name: "solver_bound", Dataset: "smult20", Scale: 1, options: serialMASC},
	{Name: "store_bound", Dataset: "MOS_T7", Scale: 2, options: serialMASC},
	{Name: "linear_rc", Dataset: "RC_01", Scale: 1.5, options: serialMASC},
	{Name: "mem_budget", Dataset: "MOS_T7", Scale: 2, options: func(tmp string, mul float64) masc.SimOptions {
		// 8 MiB is about 1/7 of the compressed tensor. The tensor grows
		// with scale² (unknowns × steps), so the smoke test's budget
		// shrinks the same way and still forces demotions.
		budget := int64(float64(8<<20) * mul * mul)
		if budget < 4<<10 {
			budget = 4 << 10
		}
		return masc.SimOptions{Storage: masc.StorageMASC, MemBudgetBytes: budget,
			DiskBytesPerSec: 0.5e9, DiskDir: tmp}
	}},
	{Name: "pipelined", Dataset: "MOS_T7", Scale: 2, options: func(string, float64) masc.SimOptions {
		// Workers and windows are pinned at 2, not NumCPU, so the work
		// shape is the same on every host.
		return masc.SimOptions{Storage: masc.StorageMASC, Async: true, PipelineDepth: 2,
			AdjointWorkers: 2, AdjointWindows: 2}
	}},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything one masc.Simulate call needs.
type inputs struct {
	ds         *workload.Dataset
	opt        masc.SimOptions
	objectives []masc.Objective
	params     []int
}

// build generates the workload's circuit and derives the seed-dependent
// selection. The seed only rotates which evenly spaced parameters, objective
// nodes and objective time points are analysed; their counts, the circuit
// and the time axis stay fixed, so every seed is the same amount of work.
func (w spec) build(seed int64, mul float64, tmp string) (*inputs, error) {
	ds, err := workload.Build(w.Dataset, w.Scale*mul)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	total := len(ds.Ckt.Params())
	pOff := rng.Intn(total)
	params := make([]int, len(ds.Params))
	for i, p := range ds.Params {
		params[i] = (p + pOff) % total
	}
	sort.Ints(params)

	steps := ds.Tran.EstimatedSteps()
	nOff := rng.Intn(ds.Ckt.N)
	sOff := 0
	if stride := steps / len(ds.Objectives); stride > 1 {
		sOff = rng.Intn(stride)
	}
	objs := make([]masc.Objective, len(ds.Objectives))
	for i, o := range ds.Objectives {
		o.Node = (o.Node + int32(nOff)) % int32(ds.Ckt.N)
		o.Name = ds.Ckt.Names[o.Node]
		if o.Step -= sOff; o.Step < 1 {
			o.Step = 1
		}
		objs[i] = o
	}
	opt := w.options(tmp, mul)
	opt.Transient = ds.Tran
	return &inputs{ds: ds, opt: opt, objectives: objs, params: params}, nil
}

func (in *inputs) simulate() (*masc.Run, error) {
	return masc.Simulate(in.ds.Ckt, in.opt, in.objectives, in.params)
}
