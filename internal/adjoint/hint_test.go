package adjoint

import (
	"sync"
	"testing"

	"masc/internal/transient"
)

// TestConcurrentSweepsShareTheForwardFactors: two sweeps started at once
// (one serial, one on two workers), both handed the forward pass's last
// factors as their hint, each reproduce the hint-less sweep bit for bit. The
// hint is only read, which the race detector checks. On the linear ladder
// every sweep's first Jacobian is the forward's last, so both replay it; on
// the nonlinear circuits a replay may also stop at a pivot the search would
// choose differently, and the bits must not notice.
func TestConcurrentSweepsShareTheForwardFactors(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			ckt, b := tc.build(t)
			tr, fact, err := transient.RunFactored(ckt, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if fact == nil {
				t.Fatal("RunFactored returned no factors")
			}
			node, err := b.NodeIndex(tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			objs := []Objective{
				{Name: "final", Node: node, Weight: 1},
				{Name: "integral", Node: node, Weight: 2, Integral: true},
			}
			sweep := func(w int, hint bool) (*Result, error) {
				opt := Options{StoredGC: true, Workers: w}
				if hint {
					opt.Hint = fact
				}
				return Sensitivities(ckt, tr, NewRecomputeSource(ckt, tr).Pairs(), objs, opt)
			}
			want, err := sweep(1, false)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]*Result
			var errs [2]error
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g], errs[g] = sweep(g+1, true)
				}()
			}
			wg.Wait()
			for g, r := range got {
				if errs[g] != nil {
					t.Fatalf("sweep %d: %v", g, errs[g])
				}
				requireBitIdentical(t, tc.name, want, r)
				if r.Factorizations != want.Factorizations || r.Refactorizations != want.Refactorizations || r.FactorReuses != want.FactorReuses {
					t.Fatalf("sweep %d: factor requests %d/%d/%d with the hint, %d/%d/%d without", g,
						r.Factorizations, r.Refactorizations, r.FactorReuses,
						want.Factorizations, want.Refactorizations, want.FactorReuses)
				}
				if r.FactorReplays > 1 || tc.name == "rc_ladder" && r.FactorReplays != 1 {
					t.Fatalf("sweep %d: %d replays", g, r.FactorReplays)
				}
			}
		})
	}
}
