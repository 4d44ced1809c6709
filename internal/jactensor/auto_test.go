package jactensor

import (
	"math"
	"testing"

	"masc/internal/compress"
	"masc/internal/compress/gzipz"
	"masc/internal/compress/masczip"
	"masc/internal/compress/spicemate"
)

func TestAutoStoreCommitsByteIdenticalToDirect(t *testing.T) {
	jp, cp, js, cs := tensorFixture(7, 8, 30)
	mo := masczip.Options{Workers: 2}
	cands := []AutoCandidate{{
		Name: "masc",
		New: func() (compress.Compressor, compress.Compressor) {
			return masczip.New(jp, mo), masczip.New(cp, mo)
		},
	}}

	auto, err := NewAutoStore(AutoConfig{Candidates: cands, TrialSteps: 8, JPat: jp, CPat: cp})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	direct := NewCompressedStore(masczip.New(jp, mo), masczip.New(cp, mo), jp, cp)
	defer direct.Close()

	for s := range js {
		if err := auto.Put(s, js[s], cs[s]); err != nil {
			t.Fatalf("auto put %d: %v", s, err)
		}
		if err := direct.Put(s, js[s], cs[s]); err != nil {
			t.Fatalf("direct put %d: %v", s, err)
		}
	}
	if err := auto.EndForward(); err != nil {
		t.Fatal(err)
	}
	if err := direct.EndForward(); err != nil {
		t.Fatal(err)
	}

	name, trials, ok := auto.Selected()
	if !ok || name != "masc" || len(trials) != 1 {
		t.Fatalf("Selected() = %q, %d trials, ok=%v; want masc/1/true", name, len(trials), ok)
	}

	// The committed store must hold the byte stream of a run that used the
	// winner from step 0: the trial must not leak codec state into it.
	as, ds := auto.Stats(), direct.Stats()
	if as.StoredBytes != ds.StoredBytes || as.Steps != ds.Steps {
		t.Fatalf("auto stored %d B / %d steps, direct %d B / %d steps",
			as.StoredBytes, as.Steps, ds.StoredBytes, ds.Steps)
	}

	for s := len(js) - 1; s >= 0; s-- {
		aj, ac, err := auto.Fetch(s)
		if err != nil {
			t.Fatalf("auto fetch %d: %v", s, err)
		}
		dj, dc, err := direct.Fetch(s)
		if err != nil {
			t.Fatalf("direct fetch %d: %v", s, err)
		}
		for i := range aj {
			if math.Float64bits(aj[i]) != math.Float64bits(dj[i]) {
				t.Fatalf("step %d J[%d]: auto %x vs direct %x", s, i,
					math.Float64bits(aj[i]), math.Float64bits(dj[i]))
			}
		}
		for i := range ac {
			if math.Float64bits(ac[i]) != math.Float64bits(dc[i]) {
				t.Fatalf("step %d C[%d]: auto %x vs direct %x", s, i,
					math.Float64bits(ac[i]), math.Float64bits(dc[i]))
			}
		}
		// The reverse-order contract: step s+1 must stay resident while s
		// decompresses against it, so the release trails by one.
		if s+1 < len(js) {
			auto.Release(s + 1)
			direct.Release(s + 1)
		}
	}
}

func TestAutoStoreShortRunCommitsAtEndForward(t *testing.T) {
	jp, cp, js, cs := tensorFixture(11, 6, 3) // 3 steps < TrialSteps=8
	mo := masczip.Options{}
	auto, err := NewAutoStore(AutoConfig{
		Candidates: []AutoCandidate{{
			Name: "masc",
			New: func() (compress.Compressor, compress.Compressor) {
				return masczip.New(jp, mo), masczip.New(cp, mo)
			},
		}},
		JPat: jp, CPat: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()

	for s := range js {
		if err := auto.Put(s, js[s], cs[s]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := auto.Selected(); ok {
		t.Fatal("selection committed before EndForward on a short run")
	}
	if _, _, err := auto.Fetch(0); err == nil {
		t.Fatal("Fetch before EndForward must fail")
	}
	if err := auto.EndForward(); err != nil {
		t.Fatal(err)
	}
	if name, _, ok := auto.Selected(); !ok || name != "masc" {
		t.Fatalf("short run Selected() = %q, ok=%v", name, ok)
	}
	j, _, err := auto.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range j {
		if math.Float64bits(j[i]) != math.Float64bits(js[2][i]) {
			t.Fatalf("J[%d] = %x, want %x", i, math.Float64bits(j[i]), math.Float64bits(js[2][i]))
		}
	}
}

func TestAutoStoreNeverCommitsLossy(t *testing.T) {
	jp, cp, js, cs := tensorFixture(13, 6, 12)
	auto, err := NewAutoStore(AutoConfig{
		Candidates: []AutoCandidate{
			{Name: "gzip", New: func() (compress.Compressor, compress.Compressor) {
				return gzipz.New(), gzipz.New()
			}},
			{Name: "spicemate", New: func() (compress.Compressor, compress.Compressor) {
				return spicemate.New(), spicemate.New()
			}},
		},
		TrialSteps: 4, JPat: jp, CPat: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	for s := range js {
		if err := auto.Put(s, js[s], cs[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := auto.EndForward(); err != nil {
		t.Fatal(err)
	}
	name, trials, ok := auto.Selected()
	if !ok || name != "gzip" {
		t.Fatalf("Selected() = %q, ok=%v; lossy spicemate must never win", name, ok)
	}
	// The lossy candidate is still on the scoreboard.
	if len(trials) != 2 || trials[1].Name != "spicemate" || trials[1].Committable {
		t.Fatalf("trials = %+v; want spicemate present and not committable", trials)
	}
	// Everything round-trips bit-exact through the lossless winner.
	j, _, err := auto.Fetch(11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range j {
		if math.Float64bits(j[i]) != math.Float64bits(js[11][i]) {
			t.Fatalf("lossy leak: J[%d] = %x, want %x", i,
				math.Float64bits(j[i]), math.Float64bits(js[11][i]))
		}
	}
}

func TestAutoStoreAllLossyErrors(t *testing.T) {
	jp, cp, js, cs := tensorFixture(17, 4, 6)
	auto, err := NewAutoStore(AutoConfig{
		Candidates: []AutoCandidate{
			{Name: "spicemate", New: func() (compress.Compressor, compress.Compressor) {
				return spicemate.New(), spicemate.New()
			}},
		},
		TrialSteps: 2, JPat: jp, CPat: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	var commitErr error
	for s := range js {
		if commitErr = auto.Put(s, js[s], cs[s]); commitErr != nil {
			break
		}
	}
	if commitErr == nil {
		t.Fatal("an all-lossy menu must refuse to commit")
	}
}

func TestAutoStoreAnchorsAndSlices(t *testing.T) {
	jp, cp, js, cs := tensorFixture(19, 6, 24)
	mo := masczip.Options{}
	auto, err := NewAutoStore(AutoConfig{
		Candidates: []AutoCandidate{{
			Name: "masc",
			New: func() (compress.Compressor, compress.Compressor) {
				return masczip.New(jp, mo), masczip.New(cp, mo)
			},
		}},
		TrialSteps: 4, JPat: jp, CPat: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	auto.SetAnchorEvery(6)
	for s := range js {
		if err := auto.Put(s, js[s], cs[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := auto.EndForward(); err != nil {
		t.Fatal(err)
	}
	anchors := auto.AnchorSteps()
	if len(anchors) < 3 {
		t.Fatalf("AnchorSteps() = %v, want ≥3 anchors with cadence 6 over 24 steps", anchors)
	}
	lo, hi := anchors[1], anchors[2]
	sl, err := auto.Slice(lo, hi)
	if err != nil {
		t.Fatalf("Slice(%d,%d): %v", lo, hi, err)
	}
	for s := hi; s >= lo; s-- {
		j, _, err := sl.Fetch(s)
		if err != nil {
			t.Fatalf("slice fetch %d: %v", s, err)
		}
		for i := range j {
			if math.Float64bits(j[i]) != math.Float64bits(js[s][i]) {
				t.Fatalf("slice step %d J[%d] mismatch", s, i)
			}
		}
		if s+1 <= hi {
			sl.Release(s + 1)
		}
	}
}
