package bench

import (
	"math"
	"strings"
	"testing"

	"masc/internal/workload"
)

// testScale keeps every experiment at smoke-test size.
const testScale = 0.04

func TestCaptureTensor(t *testing.T) {
	tn := mustTensor(t, "add20")
	if tn.Steps < 5 {
		t.Fatalf("captured only %d steps", tn.Steps)
	}
	if tn.RawBytes() <= 0 {
		t.Fatal("no payload")
	}
}

func mustTensor(t testing.TB, name string) *Tensor {
	t.Helper()
	ds, err := workload.Build(name, testScale)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := CaptureTensor(ds)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestTable1SmallRun(t *testing.T) {
	rows, err := RunTable1([]string{"CHIP_01", "RC_02"}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SensSec <= 0 || r.TranSec <= 0 {
			t.Fatalf("non-positive times: %+v", r)
		}
		if r.JacFrac <= 0 || r.JacFrac >= 1 {
			t.Fatalf("Jacobian fraction %g outside (0,1)", r.JacFrac)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "CHIP_01") || !strings.Contains(out, "Tjac/Tsens") {
		t.Fatalf("bad rendering:\n%s", out)
	}
}

func TestFig1(t *testing.T) {
	rows, err := RunFig1(nil, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CSRBytes <= r.NZBytes || r.NZBytes <= 0 {
			t.Fatalf("inconsistent sizes: %+v", r)
		}
	}
	if !strings.Contains(FormatFig1(rows), "S_CSR") {
		t.Fatal("bad rendering")
	}
}

func TestTable2(t *testing.T) {
	rows, err := RunTable2([]string{"add20", "MOS_T5"}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GzipCR < 1 {
			t.Fatalf("gzip expanded the data: %+v", r)
		}
	}
	if !strings.Contains(FormatTable2(rows), "CR(gzip)") {
		t.Fatal("bad rendering")
	}
}

func TestTable3OrderingHolds(t *testing.T) {
	// The paper's headline: MASC beats FPZIP, gzip and NDZIP on these
	// tensors; NDZIP is near 1.
	cells, err := RunTable3([]string{"add20", "MOS_T5"}, nil, testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr := map[string]float64{}
	count := map[string]int{}
	for _, c := range cells {
		cr[c.Codec] += c.CR
		count[c.Codec]++
	}
	for k := range cr {
		cr[k] /= float64(count[k])
	}
	if cr["masc"] <= cr["fpzip"] {
		t.Fatalf("masc (%.2f) must beat fpzip (%.2f)", cr["masc"], cr["fpzip"])
	}
	if cr["masc"] <= cr["ndzip"] {
		t.Fatalf("masc (%.2f) must beat ndzip (%.2f)", cr["masc"], cr["ndzip"])
	}
	if cr["masc"] <= cr["spicemate"] {
		t.Fatalf("masc (%.2f) must beat spicemate (%.2f)", cr["masc"], cr["spicemate"])
	}
	if cr["ndzip"] > 2.5 {
		t.Fatalf("ndzip CR %.2f suspiciously high for this data family", cr["ndzip"])
	}
	out := FormatTable3(cells)
	if !strings.Contains(out, "Average") {
		t.Fatal("bad rendering")
	}
}

func TestFig5b6(t *testing.T) {
	f5, f6, err := RunFig5b6([]string{"add20"}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5) != 1 || len(f6) != 1 {
		t.Fatal("wrong row counts")
	}
	var tot float64
	for _, p := range f5[0].Pct {
		tot += p
	}
	if math.Abs(tot-100) > 0.1 {
		t.Fatalf("Fig5b percentages sum to %g", tot)
	}
	s := f6[0].Temporal + f6[0].Stamp + f6[0].LastValue
	if math.Abs(s-100) > 0.1 {
		t.Fatalf("Fig6 percentages sum to %g", s)
	}
	if !strings.Contains(FormatFig5b(f5), "zero") || !strings.Contains(FormatFig6(f6), "Temporal") {
		t.Fatal("bad rendering")
	}
}

func TestFig7(t *testing.T) {
	rows, err := RunFig7([]string{"add20"}, testScale, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MascSec <= 0 || r.RecomputeSec <= 0 || r.BatchedSec <= 0 || r.DiskSec <= 0 {
		t.Fatalf("non-positive times: %+v", r)
	}
	if r.MascCR < 2 {
		t.Fatalf("MASC CR %.2f too low end-to-end", r.MascCR)
	}
	if out := FormatFig7(rows); !strings.Contains(out, "vsDisk") || !strings.Contains(out, "vsBatched") {
		t.Fatal("bad rendering")
	}
}

func TestParallelScaling(t *testing.T) {
	rows, err := RunParallel("add20", testScale, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Speedup != 1 {
		t.Fatalf("bad rows: %+v", rows)
	}
	if !strings.Contains(FormatParallel(rows), "Speedup") {
		t.Fatal("bad rendering")
	}
}

func TestAblation(t *testing.T) {
	rows, err := RunAblation([]string{"add20"}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	crs := map[string]float64{}
	for _, r := range rows {
		if r.CR < 1 {
			t.Fatalf("variant %s expanded the data", r.Variant)
		}
		crs[r.Variant] = r.CR
	}
	if crs["full"] < crs["temporal-only(chimp)"] {
		t.Fatalf("full MASC (%.2f) should beat the temporal-only baseline (%.2f)",
			crs["full"], crs["temporal-only(chimp)"])
	}
	if !strings.Contains(FormatAblation(rows), "Variant") {
		t.Fatal("bad rendering")
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	tn := mustTensor(t, "add20")
	if _, err := NewCodecPair("nope", tn, 1, false); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ablationPair("nope", tn); err == nil {
		t.Fatal("expected error")
	}
}
