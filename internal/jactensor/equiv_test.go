package jactensor

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"masc/internal/compress/chimpz"
	"masc/internal/compress/gzipz"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// storePair builds a sync and an async store over fresh codec instances of
// the same profile, so both see identical compression state machines.
func storePair(rng *rand.Rand, jp, cp *sparse.Pattern) (*CompressedStore, *CompressedStore) {
	switch rng.Intn(3) {
	case 0:
		mo := masczip.Options{Workers: 1 + rng.Intn(3), Markov: rng.Intn(2) == 0, CalibEvery: 1 + rng.Intn(4)}
		return NewCompressedStore(masczip.New(jp, mo), masczip.New(cp, mo), jp, cp),
			NewCompressedStoreAsync(masczip.New(jp, mo), masczip.New(cp, mo), jp, cp, 0)
	case 1:
		return NewCompressedStore(chimpz.NewTemporal(), chimpz.NewTemporal(), jp, cp),
			NewCompressedStoreAsync(chimpz.NewTemporal(), chimpz.NewTemporal(), jp, cp, 0)
	default:
		return NewCompressedStore(gzipz.New(), gzipz.New(), jp, cp),
			NewCompressedStoreAsync(gzipz.New(), gzipz.New(), jp, cp, 0)
	}
}

// TestSyncAsyncEquivalence is the pipeline-equivalence property test: under
// random codecs and scheduling perturbations, the async store
// must be observationally identical to the sync store — byte-identical blob
// sequences, identical step accounting, and bit-identical fetches.
func TestSyncAsyncEquivalence(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			n := 4 + rng.Intn(12)
			steps := 1 + rng.Intn(40)
			jp, cp, js, cs := tensorFixture(int64(trial), n, steps)
			sync, async := storePair(rng, jp, cp)
			defer sync.Close()
			defer async.Close()

			for s := 0; s < steps; s++ {
				if err := sync.Put(s, js[s], cs[s]); err != nil {
					t.Fatalf("sync put %d: %v", s, err)
				}
				if err := async.Put(s, js[s], cs[s]); err != nil {
					t.Fatalf("async put %d: %v", s, err)
				}
				// Perturb the pipeline's interleaving: yields, sleeps, and
				// premature fetches (which must fail without disturbing the
				// forward state).
				switch rng.Intn(8) {
				case 0:
					runtime.Gosched()
				case 1:
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				case 2:
					if _, _, err := async.Fetch(0); err == nil {
						t.Fatal("async Fetch before EndForward must fail")
					}
				}
			}
			if err := sync.EndForward(); err != nil {
				t.Fatalf("sync EndForward: %v", err)
			}
			if err := async.EndForward(); err != nil {
				t.Fatalf("async EndForward: %v", err)
			}

			if len(sync.steps) != len(async.steps) {
				t.Fatalf("blob counts diverge: sync %d async %d", len(sync.steps), len(async.steps))
			}
			for i, sr := range sync.steps {
				ar := async.steps[i]
				if !bytes.Equal(sr.blobs[0], ar.blobs[0]) {
					t.Fatalf("J blob %d differs (%d vs %d bytes)", i, len(sr.blobs[0]), len(ar.blobs[0]))
				}
				if !bytes.Equal(sr.blobs[1], ar.blobs[1]) {
					t.Fatalf("C blob %d differs (%d vs %d bytes)", i, len(sr.blobs[1]), len(ar.blobs[1]))
				}
			}
			ss, as := sync.Stats(), async.Stats()
			if ss.Steps != as.Steps || ss.RawBytes != as.RawBytes || ss.StoredBytes != as.StoredBytes {
				t.Fatalf("stats diverge: sync {steps %d raw %d stored %d} vs async {steps %d raw %d stored %d}",
					ss.Steps, ss.RawBytes, ss.StoredBytes, as.Steps, as.RawBytes, as.StoredBytes)
			}

			// Reverse sweep: every fetch bit-identical to the original values
			// from both stores.
			for i := steps - 1; i >= 0; i-- {
				jw, cw, err := sync.Fetch(i)
				if err != nil {
					t.Fatalf("sync fetch %d: %v", i, err)
				}
				ja, ca, err := async.Fetch(i)
				if err != nil {
					t.Fatalf("async fetch %d: %v", i, err)
				}
				for k := range jw {
					if math.Float64bits(jw[k]) != math.Float64bits(js[i][k]) ||
						math.Float64bits(ja[k]) != math.Float64bits(js[i][k]) {
						t.Fatalf("step %d J[%d] corrupted", i, k)
					}
				}
				for k := range cw {
					if math.Float64bits(cw[k]) != math.Float64bits(cs[i][k]) ||
						math.Float64bits(ca[k]) != math.Float64bits(cs[i][k]) {
						t.Fatalf("step %d C[%d] corrupted", i, k)
					}
				}
				if i < steps-1 {
					sync.Release(i + 1)
					async.Release(i + 1)
				}
			}
		})
	}
}

// TestAsyncEarlyClose closes the async store at every forward progress
// point without EndForward: the pipeline must drain cleanly, Close must be
// idempotent, and no in-flight job may deadlock or panic the process.
func TestAsyncEarlyClose(t *testing.T) {
	jp, cp, js, cs := tensorFixture(5, 8, 12)
	for k := 0; k <= len(js); k++ {
		st := NewCompressedStoreAsync(chimpz.NewTemporal(), chimpz.NewTemporal(), jp, cp, 0)
		for s := 0; s < k; s++ {
			if err := st.Put(s, js[s], cs[s]); err != nil {
				t.Fatalf("close-at-%d: put %d: %v", k, s, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close-at-%d: %v", k, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close-at-%d: second Close: %v", k, err)
		}
		if err := st.Put(k, js[0], cs[0]); err == nil {
			t.Fatalf("close-at-%d: Put after Close must fail", k)
		}
	}
}

// TestAsyncWorkerErrorEveryPosition injects a panic into the k-th
// background compression for every early queue position: some later Put or
// EndForward must return the failure, Close must report it too, and the
// worker goroutine must still shut down.
func TestAsyncWorkerErrorEveryPosition(t *testing.T) {
	jp, cp, js, cs := tensorFixture(9, 8, 20)
	for k := 1; k <= 6; k++ {
		st := NewCompressedStoreAsync(&poisonCodec{Compressor: gzipz.New(), failOn: k}, gzipz.New(), jp, cp, 0)
		var err error
		for s := 0; s < len(js); s++ {
			if err = st.Put(s, js[s], cs[s]); err != nil {
				break
			}
		}
		if err == nil {
			err = st.EndForward()
		}
		var se *StepError
		if err == nil || !errors.As(err, &se) {
			t.Fatalf("k=%d: injected worker failure did not surface as *StepError: %v", k, err)
		}
		if se.Step != k-1 || !strings.Contains(se.Error(), "panic") {
			t.Fatalf("k=%d: failure does not name the poisoned step: %v", k, err)
		}
		if cerr := st.Close(); cerr == nil {
			t.Fatalf("k=%d: Close must report the recorded failure", k)
		}
	}
}
