package bench

import (
	"fmt"
	"strings"

	"masc/internal/workload"
)

// Table3Cell holds one (dataset, codec) measurement of the paper's Table 3.
// The *RateMBps fields are the derived throughputs (raw MB per second of
// codec time).
type Table3Cell struct {
	Dataset        string
	Codec          string
	CR             float64
	CompSec        float64
	DecompSec      float64
	CompRateMBps   float64
	DecompRateMBps float64
}

// RunTable3 measures the named codecs (CodecNames() if nil) over every
// dataset. Each dataset is simulated once; all codecs compress the same
// captured tensor.
func RunTable3(names, codecs []string, scale float64, workers int) ([]Table3Cell, error) {
	if names == nil {
		names = workload.Table2Names()
	}
	var cells []Table3Cell
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		tn, err := CaptureTensor(ds)
		if err != nil {
			return nil, err
		}
		more, err := MeasureAllCodecs(tn, codecs, workers)
		if err != nil {
			return nil, err
		}
		cells = append(cells, more...)
	}
	return cells, nil
}

// MeasureAllCodecs runs the named codecs (CodecNames() if nil) over one
// tensor: one dataset's row of Table 3.
func MeasureAllCodecs(tn *Tensor, codecs []string, workers int) ([]Table3Cell, error) {
	if codecs == nil {
		codecs = CodecNames()
	}
	cells := make([]Table3Cell, 0, len(codecs))
	for _, cn := range codecs {
		pair, err := NewCodecPair(cn, tn, workers, false)
		if err != nil {
			return nil, err
		}
		r, err := MeasureCodec(pair, tn)
		if err != nil {
			return nil, err
		}
		cells = append(cells, Table3Cell{
			Dataset:        tn.Name,
			Codec:          cn,
			CR:             r.CR,
			CompSec:        r.CompressTime.Seconds(),
			DecompSec:      r.DecompressTime.Seconds(),
			CompRateMBps:   r.CompressMBps,
			DecompRateMBps: r.DecompressMBps,
		})
	}
	return cells, nil
}

// FormatTable3 renders the dataset×codec grid, one dataset block per line
// group, plus per-codec averages (the paper's bottom row).
func FormatTable3(cells []Table3Cell) string {
	var datasets, codecs []string
	seenD := map[string]bool{}
	seenC := map[string]bool{}
	cell := map[string]Table3Cell{}
	for _, c := range cells {
		if !seenD[c.Dataset] {
			seenD[c.Dataset] = true
			datasets = append(datasets, c.Dataset)
		}
		if !seenC[c.Codec] {
			seenC[c.Codec] = true
			codecs = append(codecs, c.Codec)
		}
		cell[c.Dataset+"\x00"+c.Codec] = c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Dataset")
	for _, cn := range codecs {
		fmt.Fprintf(&b, " | %-40s", cn+" CR/Tc/Td/Rc/Rd")
	}
	b.WriteString("\n")
	sums := map[string][5]float64{}
	for _, dn := range datasets {
		fmt.Fprintf(&b, "%-10s", dn)
		for _, cn := range codecs {
			c := cell[dn+"\x00"+cn]
			fmt.Fprintf(&b, " | %7.2f %7.3fs %7.3fs %6.1f %6.1f MB/s",
				c.CR, c.CompSec, c.DecompSec, c.CompRateMBps, c.DecompRateMBps)
			s := sums[cn]
			s[0] += c.CR
			s[1] += c.CompSec
			s[2] += c.DecompSec
			s[3] += c.CompRateMBps
			s[4] += c.DecompRateMBps
			sums[cn] = s
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "Average")
	n := float64(len(datasets))
	for _, cn := range codecs {
		s := sums[cn]
		fmt.Fprintf(&b, " | %7.2f %7.3fs %7.3fs %6.1f %6.1f MB/s",
			s[0]/n, s[1]/n, s[2]/n, s[3]/n, s[4]/n)
	}
	b.WriteString("\n")
	return b.String()
}

// AblationRow measures a MASC design-choice ablation on one dataset.
type AblationRow struct {
	Dataset string
	Variant string
	CR      float64
	CompSec float64
}

// ablationVariants maps variant names to masczip option mutations; they are
// applied through NewCodecPair-compatible construction below.
var ablationVariants = []string{
	"full", "markov", "no-stamp", "no-lastvalue", "temporal-only(chimp)",
}

// RunAblation measures the contribution of each MASC design choice.
func RunAblation(names []string, scale float64) ([]AblationRow, error) {
	if names == nil {
		names = []string{"add20", "smult20", "MOS_T5"}
	}
	var rows []AblationRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		tn, err := CaptureTensor(ds)
		if err != nil {
			return nil, err
		}
		for _, v := range ablationVariants {
			pair, err := ablationPair(v, tn)
			if err != nil {
				return nil, err
			}
			r, err := MeasureCodec(pair, tn)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Dataset: name,
				Variant: v,
				CR:      r.CR,
				CompSec: r.CompressTime.Seconds(),
			})
		}
	}
	return rows, nil
}

// FormatAblation renders the ablation grid.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-22s %8s %10s\n", "Dataset", "Variant", "CR", "Tcomp")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-22s %8.2f %9.3fs\n", r.Dataset, r.Variant, r.CR, r.CompSec)
	}
	return b.String()
}
