package bench

import (
	"fmt"
	"strings"

	"masc/internal/workload"
)

// Fig5bRow is one dataset's leading-zero distribution of MASC residuals
// (Figure 5b): Pct[i] for classes 0,8,…,56 leading zeros, Pct[8] for
// all-zero residuals.
type Fig5bRow struct {
	Dataset string
	Pct     [9]float64
}

// Fig6Row is one dataset's prediction-model selection rate (Figure 6).
type Fig6Row struct {
	Dataset   string
	Temporal  float64
	Stamp     float64
	LastValue float64
}

// RunFig5b6 collects both figures in one pass: MASC (best-fit mode, stats
// on) compresses each dataset's tensor and reports residual and selection
// statistics.
func RunFig5b6(names []string, scale float64) ([]Fig5bRow, []Fig6Row, error) {
	if names == nil {
		names = workload.Table2Names()
	}
	var f5 []Fig5bRow
	var f6 []Fig6Row
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, nil, err
		}
		tn, err := CaptureTensor(ds)
		if err != nil {
			return nil, nil, err
		}
		pair, err := NewCodecPair("masc", tn, 1, true)
		if err != nil {
			return nil, nil, err
		}
		if _, err := MeasureCodec(pair, tn); err != nil {
			return nil, nil, err
		}
		st, ok := mascStats(pair)
		if !ok || st.Elements == 0 {
			return nil, nil, fmt.Errorf("bench: no MASC stats for %s", name)
		}
		var r5 Fig5bRow
		r5.Dataset = name
		for i, h := range st.LZHist {
			r5.Pct[i] = 100 * float64(h) / float64(st.Elements)
		}
		f5 = append(f5, r5)
		// Figure 6 is over selector-coded elements: the model-selection
		// statistics of Algorithm 1's best-fit phase.
		sel := float64(st.SelectorElements)
		if sel == 0 {
			sel = 1
		}
		f6 = append(f6, Fig6Row{
			Dataset:   name,
			Temporal:  100 * float64(st.Temporal) / sel,
			Stamp:     100 * float64(st.Stamp) / sel,
			LastValue: 100 * float64(st.LastValue) / sel,
		})
	}
	return f5, f6, nil
}

// FormatFig5b renders the leading-zero histogram.
func FormatFig5b(rows []Fig5bRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Dataset")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("lz%d", i*8))
	}
	fmt.Fprintf(&b, " %6s\n", "zero")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Dataset)
		for _, p := range r.Pct {
			fmt.Fprintf(&b, " %5.1f%%", p)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFig6 renders the model selection rates.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "Dataset", "Temporal", "Stamp", "LastValue")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.1f%% %9.1f%% %9.1f%%\n", r.Dataset, r.Temporal, r.Stamp, r.LastValue)
	}
	return b.String()
}
