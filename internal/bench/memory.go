package bench

import (
	"fmt"
	"strings"

	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// MemoryRow reports the measured tensor footprint of one dataset under one
// storage strategy — the measured counterpart of Figure 1's projections.
type MemoryRow struct {
	Dataset      string
	Strategy     string
	RawBytes     int64
	StoredBytes  int64
	PeakResident int64
	CR           float64
}

// RunMemory simulates each dataset once per storage strategy and records
// the store's own accounting.
func RunMemory(names []string, scale float64, workers int) ([]MemoryRow, error) {
	if names == nil {
		names = []string{"add20", "mem_plus", "MOS_T5"}
	}
	var rows []MemoryRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		stores := []struct {
			label string
			mk    func() (jactensor.Store, error)
		}{
			{"memory", func() (jactensor.Store, error) { return jactensor.NewMemStore(), nil }},
			{"disk", func() (jactensor.Store, error) { return jactensor.NewDiskStore("", 0) }},
			{"masc", func() (jactensor.Store, error) {
				opt := masczip.Options{Workers: workers}
				return jactensor.NewCompressedStore(
					masczip.New(ds.Ckt.GPat, opt), masczip.New(ds.Ckt.CPat, opt),
					ds.Ckt.GPat, ds.Ckt.CPat), nil
			}},
			{"masc+markov", func() (jactensor.Store, error) {
				opt := masczip.Options{Markov: true, Workers: workers}
				return jactensor.NewCompressedStore(
					masczip.New(ds.Ckt.GPat, opt), masczip.New(ds.Ckt.CPat, opt),
					ds.Ckt.GPat, ds.Ckt.CPat), nil
			}},
		}
		for _, sc := range stores {
			st, err := sc.mk()
			if err != nil {
				return nil, err
			}
			if _, err := ds.RunForward(st); err != nil {
				return nil, fmt.Errorf("bench memory %s/%s: %w", name, sc.label, err)
			}
			stats := st.Stats()
			rows = append(rows, MemoryRow{
				Dataset:      name,
				Strategy:     sc.label,
				RawBytes:     stats.RawBytes,
				StoredBytes:  stats.StoredBytes,
				PeakResident: stats.PeakResident,
				CR:           float64(stats.RawBytes) / float64(stats.StoredBytes),
			})
			if err := st.Close(); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// FormatMemory renders the measured footprints.
func FormatMemory(rows []MemoryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %12s %12s %14s %8s\n",
		"Dataset", "Strategy", "Raw", "Stored", "PeakResident", "CR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-12s %12s %12s %14s %8.2f\n",
			r.Dataset, r.Strategy, fmtBytes(r.RawBytes), fmtBytes(r.StoredBytes),
			fmtBytes(r.PeakResident), r.CR)
	}
	return b.String()
}
