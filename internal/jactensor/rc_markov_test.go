package jactensor_test

import (
	"testing"

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
			stored := func(markov bool) int64 {
				mo := masczip.Options{Markov: markov}
				gp, cp := ds.Ckt.GPat, ds.Ckt.CPat
				st := jactensor.NewCompressedStore(masczip.New(gp, mo), masczip.New(cp, mo), gp, cp)
				defer st.Close()
				if _, err := ds.RunForward(st); err != nil {
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
