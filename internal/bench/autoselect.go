package bench

import (
	"fmt"
	"strings"

	"masc/internal/compress"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// This file benchmarks the "auto" storage's codec autopilot: it replays the
// selection trial (first K captured steps, scored on bytes saved per second)
// against the ex-post answer — each committable codec measured over the FULL
// tensor — and reports how much of the best achievable score the trial's
// pick actually captured. The experiment's claim is that an 8-step prefix is
// enough to land within 10% of the codec a whole-run oracle would choose.

// autoSelectCandidates is the trial menu, mirroring the production "auto"
// storage: MASC first (the tie/fallback winner), spicemate lossy and
// therefore never committable.
var autoSelectCandidates = []string{"masc", "masc+markov", "gzip", "spicemate"}

// AutoSelectRow reports the autopilot's pick on one dataset against the
// ex-post best codec. SelEfficiencyRatio is pickedScore/bestScore over the
// full tensor (1.0 = the trial found the true optimum). WithinTol is the
// experiment's acceptance verdict: efficiency ≥ 0.9.
type AutoSelectRow struct {
	Dataset            string
	Picked             string
	ExPostBest         string
	TrialSteps         int
	PickedScore        float64 // full-tensor bytes saved per second, picked codec
	BestScore          float64 // full-tensor bytes saved per second, best codec
	SelEfficiencyRatio float64
	WithinTol          bool
}

// RunAutoSelect scores the adaptive codec selection on every Table 3
// dataset (names nil = the Table 2 set).
func RunAutoSelect(names []string, scale float64, workers int) ([]AutoSelectRow, error) {
	if names == nil {
		names = workload.Table2Names()
	}
	var rows []AutoSelectRow
	for _, name := range names {
		ds, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		tn, err := CaptureTensor(ds)
		if err != nil {
			return nil, err
		}
		row, err := autoSelectOne(tn, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func autoSelectOne(tn *Tensor, workers int) (AutoSelectRow, error) {
	k := jactensor.DefaultTrialSteps
	if k > tn.Steps {
		k = tn.Steps
	}
	row := AutoSelectRow{Dataset: tn.Name, TrialSteps: k}

	// The trial, exactly as the AutoStore runs it: fresh codec pairs over
	// the first k frames and their states, scored on bytes saved per second.
	var xs [][]float64
	if tn.XS != nil {
		xs = tn.XS[:k]
	}
	trials := make([]compress.TrialResult, 0, len(autoSelectCandidates))
	for _, cn := range autoSelectCandidates {
		pair, err := NewCodecPair(cn, tn, workers, false)
		if err != nil {
			return row, err
		}
		trials = append(trials, compress.RunTrial(
			compress.NewCandidate(cn, pair.g, pair.c), tn.GS[:k], tn.CS[:k], xs, nil))
	}
	win := compress.Pick(trials)
	if win < 0 {
		return row, fmt.Errorf("bench: auto trial picked no committable codec on %s", tn.Name)
	}
	row.Picked = trials[win].Name

	// The ex-post oracle: every committable candidate measured over the
	// whole tensor with fresh codecs, same score. Best of three full
	// measurements — the oracle must not be noisier than the trial it
	// judges.
	exPost := map[string]float64{}
	raw := float64(tn.RawBytes())
	for _, cn := range autoSelectCandidates {
		if !trials[indexOf(trials, cn)].Committable {
			continue
		}
		score := 0.0
		for rep := 0; rep < 3; rep++ {
			pair, err := NewCodecPair(cn, tn, workers, false)
			if err != nil {
				return row, err
			}
			r, err := MeasureCodec(pair, tn)
			if err != nil {
				return row, err
			}
			sec := r.CompressTime.Seconds()
			if sec <= 0 {
				sec = 1e-9
			}
			if s := (raw - float64(r.CompressedBytes)) / sec; s > score {
				score = s
			}
		}
		exPost[cn] = score
		if row.ExPostBest == "" || score > row.BestScore {
			row.ExPostBest, row.BestScore = cn, score
		}
	}
	row.PickedScore = exPost[row.Picked]
	if row.BestScore > 0 {
		row.SelEfficiencyRatio = row.PickedScore / row.BestScore
	}
	row.WithinTol = row.SelEfficiencyRatio >= 0.9
	return row, nil
}

func indexOf(trials []compress.TrialResult, name string) int {
	for i, t := range trials {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// FormatAutoSelect renders the selection scorecard.
func FormatAutoSelect(rows []AutoSelectRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-12s %6s %14s %14s %6s %s\n",
		"Dataset", "Picked", "ExPostBest", "K", "Picked MB/s", "Best MB/s", "Eff", "Verdict")
	for _, r := range rows {
		verdict := "OK (within 10% of ex-post best)"
		if !r.WithinTol {
			verdict = "OFF-BEST (>10% below ex-post best)"
		}
		fmt.Fprintf(&b, "%-10s %-12s %-12s %6d %14.1f %14.1f %6.3f %s\n",
			r.Dataset, r.Picked, r.ExPostBest, r.TrialSteps,
			r.PickedScore/1e6, r.BestScore/1e6, r.SelEfficiencyRatio, verdict)
	}
	return b.String()
}
