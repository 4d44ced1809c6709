package jactensor

import (
	"testing"
	"time"

	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// benchSolve stands in for the solver's Newton iterations between
// timesteps: the window an async store uses to hide compression. It
// sleeps rather than busy-spins so that on a single-CPU machine the
// background worker can actually run during the window — on multicore
// hardware the worker overlaps with real solver compute the same way.
func benchSolve(d time.Duration) { time.Sleep(d) }

// calibrateSolve returns the steady-state cost of compressing one (J, C)
// step, used as the simulated solve interval so the pipeline is neither
// starved nor saturated.
func calibrateSolve(jp, cp *sparse.Pattern, js, cs [][]float64) time.Duration {
	jc := masczip.New(jp, masczip.Options{})
	cc := masczip.New(cp, masczip.Options{})
	var d time.Duration
	for i := 0; i < 3; i++ { // first pass is cold: scratch allocation
		start := time.Now()
		jc.Compress(nil, js[0], js[1])
		cc.Compress(nil, cs[0], cs[1])
		d = time.Since(start)
	}
	return d
}

// BenchmarkStorePut measures the solver-visible latency of Put in sync vs
// async mode. Between Puts the benchmark idles for about one compression
// interval, mimicking a solve that gives the pipeline room to drain; the
// reported put-ns/op metric is time spent inside Put only. Sync mode pays
// full compression latency per Put; async mode should pay only the
// copy+enqueue cost.
func BenchmarkStorePut(b *testing.B) {
	jp, cp, js, cs := tensorFixture(90, 120, 2)
	solve := calibrateSolve(jp, cp, js, cs)

	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			opt := masczip.Options{}
			jc, cc := masczip.New(jp, opt), masczip.New(cp, opt)
			var st Store
			if mode == "async" {
				st = NewCompressedStoreAsync(jc, cc, jp, cp, 0)
			} else {
				st = NewCompressedStore(jc, cc, jp, cp)
			}
			var inPut time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := st.Put(i, js[i%2], cs[i%2]); err != nil {
					b.Fatal(err)
				}
				inPut += time.Since(t0)
				benchSolve(solve)
			}
			b.StopTimer()
			if err := st.EndForward(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(inPut.Nanoseconds())/float64(b.N), "put-ns/op")
		})
	}
}

// BenchmarkStoreForward measures the full forward phase (every Put plus
// EndForward plus the simulated solves) — the end-to-end overlap win.
func BenchmarkStoreForward(b *testing.B) {
	jp, cp, js, cs := tensorFixture(91, 120, 2)
	solve := calibrateSolve(jp, cp, js, cs)

	const steps = 64
	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				opt := masczip.Options{}
				jc, cc := masczip.New(jp, opt), masczip.New(cp, opt)
				var st Store
				if mode == "async" {
					st = NewCompressedStoreAsync(jc, cc, jp, cp, 0)
				} else {
					st = NewCompressedStore(jc, cc, jp, cp)
				}
				for i := 0; i < steps; i++ {
					if err := st.Put(i, js[i%2], cs[i%2]); err != nil {
						b.Fatal(err)
					}
					benchSolve(solve)
				}
				if err := st.EndForward(); err != nil {
					b.Fatal(err)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreFetch measures the reverse sweep: fetch every step from
// last to first with a simulated adjoint solve between fetches. The store's
// reader is the same in both modes — an async store's read-ahead is the
// adjoint sweep's fetcher — so it runs on the sync store.
func BenchmarkStoreFetch(b *testing.B) {
	jp, cp, js, cs := tensorFixture(92, 120, 2)
	solve := calibrateSolve(jp, cp, js, cs)

	const steps = 64
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		opt := masczip.Options{}
		st := NewCompressedStore(masczip.New(jp, opt), masczip.New(cp, opt), jp, cp)
		for i := 0; i < steps; i++ {
			if err := st.Put(i, js[i%2], cs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.EndForward(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := steps - 1; i >= 0; i-- {
			if _, _, err := st.Fetch(i); err != nil {
				b.Fatal(err)
			}
			benchSolve(solve)
			if i < steps-1 {
				st.Release(i + 1)
			}
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
