package jactensor_test

import (
	"testing"

	"masc/internal/bench"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/workload"
)

// TestMarkovNoLargerOnRCNetworks: on the linear RC workloads nearly every
// step codes no miss or one or two, fewer selector bits than a Markov table
// costs, so those blobs go table-less and the Markov chain the facade stores
// holds no more than the best-fit chain. RC_01 ×1.5 is the benchmark's
// linear_rc circuit, where a table on every blob between calibrations once
// cost 3.1 %; RC_02 is the ladder.
func TestMarkovNoLargerOnRCNetworks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{{"RC_01", 1.5}, {"RC_02", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := workload.Build(tc.name, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			tn, err := bench.CaptureTensor(ds)
			if err != nil {
				t.Fatal(err)
			}
			stored := func(markov bool) int64 {
				mo := masczip.Options{Markov: markov}
				st := jactensor.NewCompressedStore(masczip.New(tn.GPat, mo), masczip.New(tn.CPat, mo), tn.GPat, tn.CPat)
				defer st.Close()
				st.Attach(jactensor.Attachment{State: func(step int) []float64 { return tn.XS[step] }})
				for i := range tn.Steps {
					if err := st.Put(i, tn.GS[i], tn.CS[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatal(err)
				}
				return st.Stats().StoredBytes
			}
			if mk, bf := stored(true), stored(false); mk > bf {
				t.Fatalf("Markov chain stores %d B, best-fit %d B", mk, bf)
			} else {
				t.Logf("Markov %d B, best-fit %d B", mk, bf)
			}
		})
	}
}
