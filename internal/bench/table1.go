package bench

import (
	"fmt"
	"strings"
	"time"

	"masc/internal/adjoint"
	"masc/internal/obs"
	"masc/internal/transient"
	"masc/internal/workload"
)

// Table1Row mirrors one row of the paper's Table 1: transient versus
// adjoint sensitivity time (Xyce-style, Jacobians recomputed in the
// reverse pass) and the share of sensitivity time spent on Jacobians.
type Table1Row struct {
	Name    string
	Kind    string
	Elems   int
	Params  int
	Objs    int
	Steps   int
	TranSec float64
	SensSec float64
	Ratio   float64 // T_sens / T_tran
	JacFrac float64 // T_jac / T_sens
}

// RunTable1 regenerates Table 1 over the given circuits (Table1Names() if
// nil) at the given workload scale.
func RunTable1(names []string, scale float64) ([]Table1Row, error) {
	if names == nil {
		names = workload.Table1Names()
	}
	rows := make([]Table1Row, 0, len(names))
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := transient.Run(ds.Ckt, ds.Tran)
		if err != nil {
			return nil, err
		}
		tran := time.Since(start)

		// The Xyce-style baseline the paper times: one recompute-everything
		// reverse sweep per objective. T_jac is the fetcher's acquisition
		// time, not Timing.Fetch: the sweep overlaps it with the solves and
		// only blocks for the part it cannot hide.
		reg := obs.NewRegistry()
		sens, err := adjoint.XyceNaiveSensitivities(ds.Ckt, res, ds.Objectives,
			adjoint.Options{Params: ds.Params, Obs: &obs.Observer{Reg: reg}})
		if err != nil {
			return nil, err
		}
		jac := reg.Counter("masc_adjoint_fetch_seconds_total", "").Value()
		rows = append(rows, Table1Row{
			Name:    ds.Name,
			Kind:    ds.Kind,
			Elems:   ds.Elems,
			Params:  len(ds.Params),
			Objs:    len(ds.Objectives),
			Steps:   res.Steps(),
			TranSec: tran.Seconds(),
			SensSec: sens.Timing.Total.Seconds(),
			Ratio:   sens.Timing.Total.Seconds() / tran.Seconds(),
			JacFrac: jac / sens.Timing.Total.Seconds(),
		})
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's column layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %8s %7s %5s %7s %9s %9s %12s %12s\n",
		"Circuit", "Type", "#Elem", "#Param", "#Obj", "#Steps", "Tran(s)", "Sens(s)", "Tsens/Ttran", "Tjac/Tsens")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %8d %7d %5d %7d %9.3f %9.3f %12.1f %11.1f%%\n",
			r.Name, r.Kind, r.Elems, r.Params, r.Objs, r.Steps,
			r.TranSec, r.SensSec, r.Ratio, 100*r.JacFrac)
	}
	return b.String()
}

// Fig1Row is one point of Figure 1: the memory needed to retain the
// Jacobian tensor of a whole transient run.
type Fig1Row struct {
	Name     string
	Elems    int
	Unknowns int
	Steps    int
	CSRBytes int64 // paper's S_CSR
	NZBytes  int64 // paper's S_NZ
}

// RunFig1 computes the Figure 1 storage ladder. No simulation is needed —
// the footprint follows from the shared pattern and the step count.
func RunFig1(names []string, scale float64) ([]Fig1Row, error) {
	if names == nil {
		names = workload.Table1Names()
	}
	rows := make([]Fig1Row, 0, len(names))
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		steps := int(ds.Tran.TStop/ds.Tran.TStep + 0.5)
		rows = append(rows, Fig1Row{
			Name:     ds.Name,
			Elems:    ds.Elems,
			Unknowns: ds.Ckt.N,
			Steps:    steps,
			CSRBytes: ds.CSRBytes(steps),
			NZBytes:  ds.NZBytes(steps),
		})
	}
	return rows, nil
}

// FormatFig1 renders the Figure 1 data as a table.
func FormatFig1(rows []Fig1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %9s %7s %12s %12s\n",
		"Circuit", "#Elem", "#Unknown", "#Steps", "S_CSR", "S_NZ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %9d %7d %12s %12s\n",
			r.Name, r.Elems, r.Unknowns, r.Steps, fmtBytes(r.CSRBytes), fmtBytes(r.NZBytes))
	}
	return b.String()
}
