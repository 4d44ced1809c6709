package jactensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"masc/internal/blobframe"
	"masc/internal/compress"
	"masc/internal/compress/chimpz"
	"masc/internal/compress/masczip"
	"masc/internal/sparse"
)

// spyCodec is a masczip compressor that records, per blob it codes or
// decodes, which frames it was handed as history — by matching their bits
// against the fixture's — so the tests can hold the chain policy to "step s is
// sealed against, and decoded against, steps s+1…s+depth, stopping at the
// head".
type spyCodec struct {
	*masczip.Compressor
	frames [][]float64 // the fixture's frames of this tensor, by step
	log    *spyLog
}

type spyLog struct {
	mu      sync.Mutex
	sealed  map[int][]int // step -> history steps, nearest first
	decoded map[int][]int
}

func newSpy(p *sparse.Pattern, opt masczip.Options, frames [][]float64) *spyCodec {
	return &spyCodec{masczip.New(p, opt), frames, &spyLog{sealed: map[int][]int{}, decoded: map[int][]int{}}}
}

// stepOf finds the fixture step whose frame has v's bits.
func (s *spyCodec) stepOf(v []float64) int {
	for i, f := range s.frames {
		if sameBits(v, f) {
			return i
		}
	}
	return -1
}

// stepOfBlocks finds the fixture step whose frame has b's bits.
func (s *spyCodec) stepOfBlocks(b compress.Blocks) int {
	for i, f := range s.frames {
		if sameBlocks(b, f) {
			return i
		}
	}
	return -1
}

func (s *spyCodec) steps(hist compress.History) []int {
	out := []int{}
	if hist.Near != nil {
		out = append(out, s.stepOf(hist.Near))
	}
	for _, b := range hist.Far {
		out = append(out, s.stepOfBlocks(b))
	}
	return out
}

func (s *spyCodec) CompressHistory(dst []byte, cur []float64, hist compress.History, states [][]float64) []byte {
	s.log.mu.Lock()
	s.log.sealed[s.stepOf(cur)] = s.steps(hist)
	s.log.mu.Unlock()
	return s.Compressor.CompressHistory(dst, cur, hist, states)
}

func (s *spyCodec) DecompressHistory(cur []float64, blob []byte, hist compress.History, states [][]float64) error {
	err := s.Compressor.DecompressHistory(cur, blob, hist, states)
	s.log.mu.Lock()
	s.log.decoded[s.stepOf(cur)] = s.steps(hist)
	s.log.mu.Unlock()
	return err
}

// wantHistory is the chain policy's rule for a run of n+1 steps.
func wantHistory(step, n, depth int) []int {
	out := []int{}
	for t := step + 1; t <= min(step+depth, n); t++ {
		out = append(out, t)
	}
	return out
}

// movingFixture is tensorFixture with every frame of both tensors distinct
// from every other, so a spy can tell the steps apart.
func movingFixture(seed int64, n, steps int) (jp, cp *sparse.Pattern, js, cs [][]float64) {
	jp, cp, js, cs = tensorFixture(seed, n, steps)
	for s := range js {
		js[s][0] = float64(s + 1)
		cs[s][0] = float64(s+1) * 1e-9
	}
	return
}

// TestHistoryStopsAtHead: over a sync store and pipelined ones built with a
// depth argument of 1, 2 and 4 (which the store ignores: each queues two
// steps), with one coder worker and with three, every blob is
// sealed against exactly the frames the rule names and decoded against the
// same ones; the blob stream is the sync store's byte for byte; and every
// step comes back bit for bit.
func TestHistoryStopsAtHead(t *testing.T) {
	const steps = 41
	jp, cp, js, cs := movingFixture(91, 16, steps)
	n := steps - 1
	for _, workers := range []int{1, 3} {
		var syncStream uint64
		for _, queue := range []int{0, 1, 2, 4} {
			name := fmt.Sprintf("workers%d/queue%d", workers, queue)
			t.Run(name, func(t *testing.T) {
				opt := masczip.Options{Workers: workers}
				jc, cc := newSpy(jp, opt, js), newSpy(cp, opt, cs)
				var st *CompressedStore
				if queue == 0 {
					st = NewCompressedStore(jc, cc, jp, cp)
				} else {
					st = NewCompressedStoreAsync(jc, cc, jp, cp, queue)
				}
				for i := range js {
					if err := st.Put(i, js[i], cs[i]); err != nil {
						t.Fatalf("%s: put %d: %v", name, i, err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stream := sealedStream(st); queue == 0 {
					syncStream = stream
				} else if stream != syncStream {
					t.Fatalf("%s: blob stream %#x, the sync store's is %#x", name, stream, syncStream)
				}
				depth := st.depth
				if depth != masczip.MaxOrder+1 {
					t.Fatalf("%s: the store holds %d frames of history for masczip, want %d", name, depth, masczip.MaxOrder+1)
				}
				for _, log := range []*spyLog{jc.log, cc.log} {
					for s := 0; s <= n; s++ {
						if got, want := fmt.Sprint(log.sealed[s]), fmt.Sprint(wantHistory(s, n, depth)); got != want {
							t.Fatalf("%s: step %d sealed against %s, want %s", name, s, got, want)
						}
					}
				}
				for i := n; i >= 0; i-- {
					j, c, err := st.Fetch(i)
					if err != nil {
						t.Fatalf("%s: fetch %d: %v", name, i, err)
					}
					if !sameBits(j, js[i]) || !sameBits(c, cs[i]) {
						t.Fatalf("%s: step %d: bits differ", name, i)
					}
					if i < n {
						st.Release(i + 1)
					}
				}
				st.Release(0)
				for _, log := range []*spyLog{jc.log, cc.log} {
					// The head is never coded, so never decoded: every step below
					// it is, once.
					if len(log.decoded) != n {
						t.Fatalf("%s: %d steps decoded, want %d", name, len(log.decoded), n)
					}
					for s, got := range log.decoded {
						if want := wantHistory(s, n, depth); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: step %d decoded against %v, sealed against %v", name, s, got, want)
						}
					}
				}
				if err := st.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
	}
}

// TestRepairRestoresHistoryBelow: a step whose blob went bad mid-chain is
// recomputed and repaired; the depth steps below it decode against the
// repaired frame among their history, every one comes back bit for bit, and
// the frames above it — which on the sharing fixture hold one another's
// blocks — are bit-identical after the repair to what they were before.
func TestRepairRestoresHistoryBelow(t *testing.T) {
	const steps, bad = 30, 17
	type fixture struct {
		name   string
		jp, cp *sparse.Pattern
		js, cs [][]float64
	}
	var fixtures []fixture
	jp, cp, js, cs := movingFixture(92, 16, steps)
	fixtures = append(fixtures, fixture{"moving", jp, cp, js, cs})
	jp, cp, js, cs = sharingFixture(92, 40, steps)
	fixtures = append(fixtures, fixture{"sharing", jp, cp, js, cs})
	for _, fx := range fixtures {
		jp, cp, js, cs := fx.jp, fx.cp, fx.js, fx.cs
		for _, async := range []bool{false, true} {
			jc, cc := newSpy(jp, masczip.Options{}, js), newSpy(cp, masczip.Options{}, cs)
			st := NewCompressedStore(jc, cc, jp, cp)
			if async {
				st = NewCompressedStoreAsync(jc, cc, jp, cp, 0)
			}
			for i := range js {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			st.steps[bad].blobs[1][len(st.steps[bad].blobs[1])/2] ^= 0x04
			st.mu.Unlock()
			for i := steps - 1; i >= 0; i-- {
				j, c, err := st.Fetch(i)
				if i == bad {
					if err == nil {
						t.Fatalf("async=%v: the damaged step decoded", async)
					}
					st.mu.Lock()
					before := checksums(st, i+1)
					st.mu.Unlock()
					st.Repair(i, js[i], cs[i])
					st.mu.Lock()
					moved := sameSums(before, checksums(st, i+1))
					st.mu.Unlock()
					if moved != nil {
						t.Fatalf("%s/async=%v: repairing step %d: %v", fx.name, async, i, moved)
					}
					j, c, err = st.Fetch(i)
				}
				if err != nil {
					t.Fatalf("async=%v: fetch %d: %v", async, i, err)
				}
				if !sameBits(j, js[i]) || !sameBits(c, cs[i]) {
					t.Fatalf("async=%v: step %d: bits differ", async, i)
				}
				if i < steps-1 {
					st.Release(i + 1)
				}
			}
			for s := bad - 1; s >= bad-st.depth; s-- {
				if got, want := fmt.Sprint(cc.log.decoded[s]), fmt.Sprint(wantHistory(s, steps-1, st.depth)); got != want {
					t.Fatalf("async=%v: step %d, below the repaired one, decoded against %s, want %s", async, s, got, want)
				}
			}
			if stats := st.Stats(); stats.Repairs != 1 || stats.CorruptBlobs != 1 {
				t.Fatalf("async=%v: %d repairs, %d corruptions, want one of each", async, stats.Repairs, stats.CorruptBlobs)
			}
			st.Close()
		}
	}
}

// TestMissingHistoryIsOutOfOrderOrCorrupt: fetching a step whose nearest
// reference is not resident is ErrOutOfOrder naming the missing step; one
// whose deeper history is gone is a degradable corruption from the codec,
// naming the order and the frames it was given.
func TestMissingHistoryIsOutOfOrderOrCorrupt(t *testing.T) {
	jp, cp, _, _ := tensorFixture(93, 16, 1)
	// Waveforms, so the blobs extrapolate.
	const steps = 20
	js, cs := make([][]float64, steps), make([][]float64, steps)
	for s := range js {
		js[s], cs[s] = make([]float64, jp.NNZ()), make([]float64, cp.NNZ())
		for k := range js[s] {
			js[s][k] = float64(k+1) * float64(1+s*s)
		}
		for k := range cs[s] {
			cs[s][k] = 1e-9 * float64(k+1) * float64(3+s*s*s)
		}
	}
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	defer st.Close()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	_, _, err := st.Fetch(10)
	if want := "step 10 needs step 11 resident"; !errors.Is(err, ErrOutOfOrder) || !strings.Contains(err.Error(), want) {
		t.Fatalf("fetch mid-chain: %v, want ErrOutOfOrder saying %q", err, want)
	}
	// A repair makes step 11 resident, but not the frames above it.
	st.Repair(11, js[11], cs[11])
	_, _, err = st.Fetch(10)
	var se *StepError
	if !errors.As(err, &se) || !se.Degradable() || !se.Corrupt || se.Step != 10 || !strings.Contains(err.Error(), "reference frames, 1 given") {
		t.Fatalf("fetch with one frame of a deeper history: %v, want a degradable corruption naming the frames given", err)
	}
}

// blobBytes is what the store's sealed blobs take: StoredBytes without the
// shared-index footprint, which the resident meter does not carry.
func blobBytes(st *CompressedStore) int64 {
	s := st.Stats()
	return s.StoredBytes - s.IndexBytes
}

// TestIdenticalTensorHoldsOneFrame: a tensor that never moves — a linear
// circuit's — shares one array per tensor across the whole history window,
// and every step below the head is a repeat, which holds no blob and whose
// fetch holds the head's array without opening the arena or timing a decode,
// so the store holds the head's frame alone, forward and reverse, and the
// same bytes at any length: at 60 steps and at 600 its blobs take nothing and
// its peak is one frame. A codec that reads one reference holds that too.
func TestIdenticalTensorHoldsOneFrame(t *testing.T) {
	jp, cp, js0, cs0 := tensorFixture(94, 24, 1)
	frame := int64(8 * (len(js0[0]) + len(cs0[0])))
	for name, mk := range map[string]func() *CompressedStore{
		"masc": func() *CompressedStore {
			return NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
		},
		"masc-async": func() *CompressedStore {
			return NewCompressedStoreAsync(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 0)
		},
		"chimp": func() *CompressedStore { return NewCompressedStore(chimpz.NewTemporal(), chimpz.NewTemporal(), jp, cp) },
	} {
		var peaks []int64
		for _, steps := range []int{60, 600} {
			name := fmt.Sprintf("%s/%d", name, steps)
			st := mk()
			for i := 0; i < steps; i++ {
				// The solver's buffers, not the fixture's: sharing is by value.
				if err := st.Put(i, append([]float64(nil), js0[0]...), append([]float64(nil), cs0[0]...)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndForward(); err != nil {
				t.Fatal(err)
			}
			if stored := blobBytes(st); stored != 0 {
				t.Fatalf("%s: the blobs take %d B, want none", name, stored)
			}
			if s := st.Stats(); s.PeakResident != frame || s.RepeatSteps != [nTensors]int{steps - 1, steps - 1} {
				t.Fatalf("%s: PeakResident %d after the forward pass, want one frame (%d); RepeatSteps %v, want every step below the head",
					name, s.PeakResident, frame, s.RepeatSteps)
			}
			for i := steps - 1; i >= 0; i-- {
				j, c, err := st.Fetch(i)
				if err != nil {
					t.Fatalf("%s: fetch %d: %v", name, i, err)
				}
				if !sameBits(j, js0[0]) || !sameBits(c, cs0[0]) {
					t.Fatalf("%s: step %d: bits differ", name, i)
				}
				if i < steps-1 {
					st.Release(i + 1)
				}
			}
			st.Release(0)
			stats := st.Stats()
			if stats.PeakResident != frame || stats.HistoryBytes != 0 || stats.DecompressTime != 0 {
				t.Fatalf("%s: PeakResident %d, HistoryBytes %d, DecompressTime %v; want one frame (%d), no history and no decode",
					name, stats.PeakResident, stats.HistoryBytes, stats.DecompressTime, frame)
			}
			peaks = append(peaks, stats.PeakResident)
			st.mu.Lock()
			if st.resident != 0 || st.arena.used != 0 || len(st.shared) != 0 {
				t.Fatalf("%s: after the sweep %d B resident, %d B of arena, %d shared arrays", name, st.resident, st.arena.used, len(st.shared))
			}
			st.mu.Unlock()
			st.Close()
		}
		if peaks[0] != peaks[1] {
			t.Fatalf("%s: PeakResident %d at 60 steps, %d at 600", name, peaks[0], peaks[1])
		}
	}
}

// TestHistoryWindowAccounting: on a tensor every value of which moves, the
// forward window holds the nearest frame flat and up to depth−1 frames in
// blocks, none shared; the sweep, at its peak, two flat frames — the one a
// fetch decodes and its nearest reference — and depth−1 in blocks, which is
// what HistoryBytes reads; and a finished sweep leaves only blobs.
func TestHistoryWindowAccounting(t *testing.T) {
	const steps = 30
	jp, cp, js, cs := movingFixture(95, 16, steps)
	for s := range js {
		for k := range js[s] {
			js[s][k] *= 1 + float64(s)*1e-3
		}
		for k := range cs[s] {
			cs[s][k] *= 1 + float64(s)*1e-3
		}
	}
	frame := int64(8 * (len(js[0]) + len(cs[0])))
	blocked := blockedBytes(len(js[0])) + blockedBytes(len(cs[0]))
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	defer st.Close()
	depth := int64(masczip.MaxOrder + 1)
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		plain := st.resident - (st.stats.StoredBytes - st.stats.IndexBytes)
		st.mu.Unlock()
		if want := frame + min(int64(i), depth-1)*blocked; plain != want {
			t.Fatalf("after put %d: %d B of plaintext, want one flat frame (%d) and %d in blocks (%d each)",
				i, plain, frame, min(int64(i), depth-1), blocked)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	stored := blobBytes(st)
	sweep(t, st, steps, func(int) { checkMeter(t, st) })
	stats := st.Stats()
	if want := stored + 2*frame + (depth-1)*blocked; stats.PeakResident != want {
		t.Fatalf("PeakResident %d, want the blobs (%d), two flat frames of %d and %d in blocks of %d", stats.PeakResident, stored, frame, depth-1, blocked)
	}
	if want := (depth - 1) * blocked; stats.HistoryBytes != want {
		t.Fatalf("HistoryBytes %d, want %d frames in blocks of %d", stats.HistoryBytes, depth-1, blocked)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.resident != stored {
		t.Fatalf("%d B resident after the sweep, %d B of blobs", st.resident, stored)
	}
}

// sharingFixture is a tensor pair whose first tensor moves in one slot a step
// and whose second moves in every slot, by a random walk no codec predicts:
// neighbouring frames of the first share every block but one.
func sharingFixture(seed int64, n, steps int) (jp, cp *sparse.Pattern, js, cs [][]float64) {
	jp, cp, js, cs = tensorFixture(seed, n, 1)
	rng := rand.New(rand.NewSource(seed))
	for s := 1; s < steps; s++ {
		j, c := append([]float64(nil), js[s-1]...), append([]float64(nil), cs[s-1]...)
		j[(s*13)%len(j)] += 1 + rng.Float64()
		for k := range c {
			c[k] = rng.NormFloat64() * 1e-9
		}
		js, cs = append(js, j), append(cs, c)
	}
	return
}

// sweep fetches every step of a store's own sweep in descending order,
// releasing each step above the one fetched, and calls after, when non-nil,
// once each fetch has returned.
func sweep(t *testing.T, st *CompressedStore, steps int, after func(step int)) {
	t.Helper()
	for i := steps - 1; i >= 0; i-- {
		if _, _, err := st.Fetch(i); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if after != nil {
			after(i)
		}
		if i < steps-1 {
			st.Release(i + 1)
		}
	}
	st.Release(0)
}

// heldBytes walks every window frame of st, mu held, and returns 8 × the
// length of the distinct arrays they hold: a flat array or a block once
// however many frames hold it, and every frame's block index.
func heldBytes(st *CompressedStore) int64 {
	flats, blocks := map[*float64]bool{}, map[*[compress.BlockLen]float64]bool{}
	n := int64(0)
	for _, rec := range st.steps {
		for _, h := range rec.t {
			if len(h.flat) > 0 && !flats[&h.flat[0]] {
				flats[&h.flat[0]] = true
				n += int64(8 * len(h.flat))
			}
			n += int64(8 * len(h.blk))
			for _, b := range h.blk {
				if !blocks[b] {
					blocks[b] = true
					n += 8 * compress.BlockLen
				}
			}
		}
	}
	return n
}

// checkMeter holds the resident meter to the memory the store's window
// actually holds, beside its blobs.
func checkMeter(t *testing.T, st *CompressedStore) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	plain := st.resident - (st.stats.StoredBytes - st.stats.IndexBytes)
	if held := heldBytes(st); plain != held {
		t.Fatalf("the meter reads %d B of plaintext, the window holds %d B", plain, held)
	}
}

// TestBlockWindowAccounting: where neighbouring frames share blocks, the
// sweep's peak is exactly the blobs, two flat frames, one full set of blocks,
// the blocks each of the other depth−2 frames in blocks changed, and the
// block indices of all depth−1 — the window HistoryBytes reads — and the
// meter equals, after every put and fetch, 8 × the distinct arrays the
// window holds — sync and async alike, for the store reads nothing ahead of
// the sweep.
func TestBlockWindowAccounting(t *testing.T) {
	const steps = 40
	jp, cp, js, cs := sharingFixture(98, 40, steps)
	nj, nc := compress.NumBlocks(len(js[0])), compress.NumBlocks(len(cs[0]))
	if nj < 4 {
		t.Fatalf("fixture too small: %d blocks of the first tensor", nj)
	}
	frame := int64(8 * (len(js[0]) + len(cs[0])))
	for _, async := range []bool{false, true} {
		st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
		if async {
			st = NewCompressedStoreAsync(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp, 0)
		}
		for i := range js {
			if err := st.Put(i, js[i], cs[i]); err != nil {
				t.Fatal(err)
			}
			checkMeter(t, st)
		}
		if err := st.EndForward(); err != nil {
			t.Fatal(err)
		}
		stored := blobBytes(st)
		sweep(t, st, steps, func(int) { checkMeter(t, st) })
		far := int64(st.depth - 1)
		const block = 8 * compress.BlockLen
		window := int64(nj+nc)*block + (far-1)*int64(1+nc)*block + far*int64(8*(nj+nc))
		if stats := st.Stats(); stats.PeakResident != stored+2*frame+window || stats.HistoryBytes != window {
			t.Fatalf("PeakResident %d, HistoryBytes %d; want the blobs (%d), two flat frames of %d and %d B in blocks, which HistoryBytes reads",
				stats.PeakResident, stats.HistoryBytes, stored, frame, window)
		}
		st.mu.Lock()
		if st.resident != stored || len(st.shared) != 0 {
			t.Fatalf("async=%v: after the sweep %d B resident beside %d B of blobs, %d shared arrays", async, st.resident, stored, len(st.shared))
		}
		st.mu.Unlock()
		st.Close()
	}
}

// TestAsyncSweepHoldsWhatSyncHolds: the store reads nothing ahead of the
// sweep — an async store's reverse half is the adjoint sweep's fetcher — so
// over the same steps an async store's sweep holds what a sync store's holds:
// the meter reads the same after every Fetch and every Release, and so does
// the sweep's peak, with a codec that reads seven frames and with one that
// reads one.
func TestAsyncSweepHoldsWhatSyncHolds(t *testing.T) {
	const steps = 40
	jp, cp, js, cs := sharingFixture(97, 40, steps)
	codecs := map[string]func() (compress.Compressor, compress.Compressor){
		"masczip": func() (compress.Compressor, compress.Compressor) {
			return masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{})
		},
		"chimp": func() (compress.Compressor, compress.Compressor) { return chimpz.NewTemporal(), chimpz.NewTemporal() },
	}
	for name, mk := range codecs {
		t.Run(name, func(t *testing.T) {
			var st [2]*CompressedStore // sync, async
			for k := range st {
				jc, cc := mk()
				st[k] = NewCompressedStore(jc, cc, jp, cp)
				if k == 1 {
					st[k] = NewCompressedStoreAsync(jc, cc, jp, cp, 0)
				}
				defer st[k].Close()
				for i := range js {
					if err := st[k].Put(i, js[i], cs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st[k].EndForward(); err != nil {
					t.Fatal(err)
				}
				// The sweep's peak alone: the forward pass's depends on how
				// far the async worker lags.
				st[k].mu.Lock()
				st[k].stats.PeakResident = st[k].resident
				st[k].mu.Unlock()
			}
			same := func(after string) {
				t.Helper()
				var r [2]int64
				for k, s := range st {
					s.mu.Lock()
					r[k] = s.resident
					s.mu.Unlock()
				}
				if r[0] != r[1] {
					t.Fatalf("after %s the async store holds %d B, the sync one %d B", after, r[1], r[0])
				}
			}
			for i := steps - 1; i >= 0; i-- {
				for _, s := range st {
					if _, _, err := s.Fetch(i); err != nil {
						t.Fatalf("fetch %d: %v", i, err)
					}
				}
				same(fmt.Sprintf("Fetch(%d)", i))
				if i < steps-1 {
					for _, s := range st {
						s.Release(i + 1)
					}
					same(fmt.Sprintf("Release(%d)", i+1))
				}
			}
			for _, s := range st {
				s.Release(0)
			}
			same("Release(0)")
			if p0, p1 := st[0].Stats().PeakResident, st[1].Stats().PeakResident; p0 != p1 {
				t.Fatalf("the async store's sweep peaked at %d B, the sync one's at %d B", p1, p0)
			}
		})
	}
}

// checksums is, per resident window frame of st from step lo up, mu held,
// the CRC32C of each tensor's values.
func checksums(st *CompressedStore, lo int) map[int][2]uint32 {
	out := map[int][2]uint32{}
	for step := lo; step < len(st.steps); step++ {
		f := &st.steps[step].heldFrame
		if !f.resident() {
			continue
		}
		var sum [2]uint32
		for i, h := range f.t {
			v := h.flat
			if v == nil {
				v = make([]float64, st.lens[i])
				for k := range v {
					v[k] = h.blk.At(k)
				}
			}
			sum[i] = blobframe.ChecksumFloat64(v)
		}
		out[step] = sum
	}
	return out
}

// TestSharedBlocksAreCopyOnWrite: frames that share blocks with their
// neighbours stay bit-identical through what writes plaintext near them — a
// decode, and a repair mid-chain of a step whose blob went bad (the steps
// below it: TestRepairRestoresHistoryBelow).
func TestSharedBlocksAreCopyOnWrite(t *testing.T) {
	const steps, bad = 40, 10
	jp, cp, js, cs := sharingFixture(99, 40, steps)
	st := NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp)
	defer st.Close()
	for i := range js {
		if err := st.Put(i, js[i], cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	if st.steps[bad].blobs[0] == nil {
		st.mu.Unlock()
		t.Fatalf("step %d holds no blob of the first tensor to damage", bad)
	}
	st.steps[bad].blobs[0][crcLen] ^= 0x10
	st.mu.Unlock()
	shared := 0
	for i := steps - 1; i >= 0; i-- {
		st.mu.Lock()
		before := checksums(st, i+1)
		for s := i + 1; s < steps-1; s++ {
			for b, blk := range st.steps[s].t[0].blk {
				if above := st.steps[s+1].t[0].blk; above != nil && above[b] == blk {
					shared++
				}
			}
		}
		st.mu.Unlock()
		j, c, err := st.Fetch(i)
		if i == bad {
			if err == nil {
				t.Fatalf("step %d: the damaged blob decoded", i)
			}
			st.Repair(i, js[i], cs[i])
			j, c, err = st.Fetch(i)
		}
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !sameBits(j, js[i]) || !sameBits(c, cs[i]) {
			t.Fatalf("step %d: bits differ", i)
		}
		st.mu.Lock()
		after := checksums(st, i+1)
		st.mu.Unlock()
		if err := sameSums(before, after); err != nil {
			t.Fatalf("fetching step %d: %v", i, err)
		}
		if i < steps-1 {
			st.Release(i + 1)
		}
	}
	if shared == 0 {
		t.Fatal("no frame shared a block with its neighbour: the fixture tests nothing")
	}
	if stats := st.Stats(); stats.CorruptBlobs != 1 || stats.Repairs != 1 {
		t.Fatalf("%d corruptions, %d repairs, want one of each: the damaged blob", stats.CorruptBlobs, stats.Repairs)
	}
}

// sameSums reports, by name, a frame whose checksums moved between before and
// after; frames no longer resident in after are not compared.
func sameSums(before, after map[int][2]uint32) error {
	for step, sum := range before {
		if got, ok := after[step]; ok && got != sum {
			return fmt.Errorf("the frame of step %d changed", step)
		}
	}
	return nil
}

// TestEarlyCloseLeaksNoFrame: closing a store whose newest steps still wait
// for their history — sync or with jobs queued, states attached, on a tensor
// whose frames share blocks — stops the worker, drops every frame, block,
// record and state reference, leaves no array with a holder and nothing
// resident, and reports no error.
func TestEarlyCloseLeaksNoFrame(t *testing.T) {
	jp, cp, js, cs, xs := voltageFixture(96, voltageNodes, 12)
	for s := 1; s < len(js); s++ {
		js[s] = append([]float64(nil), js[s-1]...)
		js[s][(s*13)%len(js[s])]++
	}
	for _, async := range []bool{false, true} {
		for _, puts := range []int{1, 3, 12} {
			jc, cc := masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{})
			st := NewCompressedStore(jc, cc, jp, cp)
			if async {
				st = NewCompressedStoreAsync(jc, cc, jp, cp, 0)
			}
			st.Attach(stateOfStep(xs))
			for i := 0; i < puts; i++ {
				if err := st.Put(i, js[i], cs[i]); err != nil {
					t.Fatal(err)
				}
			}
			st.mu.Lock()
			shared := len(st.shared)
			st.mu.Unlock()
			if puts > 1 && shared == 0 {
				t.Fatalf("async %v, %d puts: no block shared before Close", async, puts)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("async %v, %d puts: Close: %v", async, puts, err)
			}
			if async {
				select {
				case <-st.wkDone:
				default:
					t.Fatalf("async %v, %d puts: the worker outlived Close", async, puts)
				}
			}
			st.mu.Lock()
			if st.steps != nil || st.pool[0] != nil || st.pool[1] != nil || st.poolB != nil || st.shared != nil || !st.arena.closed || st.resident != 0 {
				t.Fatalf("async %v, %d puts: Close left %d records, %d+%d pooled arrays, %d pooled blocks, %d shared, %d B resident",
					async, puts, len(st.steps), len(st.pool[0]), len(st.pool[1]), len(st.poolB), len(st.shared), st.resident)
			}
			st.mu.Unlock()
			if err := st.Put(puts, js[0], cs[0]); err == nil {
				t.Fatalf("async %v, %d puts: Put after Close succeeded", async, puts)
			}
		}
	}
}

// TestHistoryOfNonFiniteFrames: NaN, ±Inf, ±0 and denormals go through the
// window's sharing test and the codec's extrapolation unchanged.
func TestHistoryOfNonFiniteFrames(t *testing.T) {
	jp, cp, js, cs := movingFixture(97, 12, 20)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	for s := range js {
		for k := 1 + s%3; k < len(js[s]); k += 5 {
			js[s][k] = specials[(k+s)%len(specials)]
		}
		for k := 1; k < len(cs[s]); k += 2 {
			cs[s][k] = specials[k%len(specials)] // the same in every frame
		}
	}
	fillAndVerify(t, NewCompressedStore(masczip.New(jp, masczip.Options{}), masczip.New(cp, masczip.Options{}), jp, cp), js, cs)
}
