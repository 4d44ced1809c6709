package jactensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"masc/internal/blobframe"
	"masc/internal/obs/span"
)

// DiskStore spills every step to a (bandwidth-throttled) spill file — the
// "save Jacobians to disk" strategy the paper's Figure 7 shows losing to
// in-memory compression by ~6×. Each tensor is written as a blobframe
// record (versioned header + CRC32C), so a flipped bit on the device, a
// truncated write, or a read at the wrong offset surfaces as a typed,
// degradable corruption error at fetch time instead of silently wrong
// sensitivities.
//
// The store owns its spill file, an append-only temp file named
// masc-spill-*.bin. Every write and read of it runs under a bounded retry
// loop (spillIO), so a transient device error (EINTR, a flaky network
// mount, an injected EIO) costs a few milliseconds instead of the run.
// Given a bandwidth, each operation is then held to it, modelling the
// paper's measurement SSD (~0.5 GB/s) on any host, so the Figure-7
// crossover does not depend on how fast the local filesystem is.
//
// mu guards all of it: Put, the reverse sweep's calls (Fetch, Repair,
// Release), Stats, and Close, which may race the last fetch of a canceled
// sweep's fetcher. A retry's backoff sleeps under it; the store is serial,
// so that delays only the operation that failed.
type DiskStore struct {
	storeBase
	mu          sync.Mutex
	f           *os.File // the spill file; nil once closed
	off         int64    // bytes written to it
	bps         float64  // modelled bytes/second; 0 = unthrottled
	retry       retryPolicy
	jitter      *rand.Rand
	offs        [][nTensors]int64 // each step's records in the spill file
	quarantined map[int]bool
	repaired    map[int]tensors // repaired plaintext, keyed by step
	scratch     []byte
	buf         tensors // the fetch buffers
}

// The retry loop's bounds: enough to absorb a fault of a few milliseconds
// without letting a dead device stall a step for more than a couple of
// seconds.
const (
	retryAttempts = 4                     // tries per operation
	retryBase     = time.Millisecond      // the first backoff, doubling per retry
	retryMax      = 50 * time.Millisecond // the longest backoff
	retryDeadline = 2 * time.Second       // one operation's wall clock, backoff included
	retrySeed     = 0x6d617363            // the backoff jitter's: the same on every run
)

// retryPolicy is the loop's bounds, held per store so that in-package tests
// can shorten them; every store starts with the constants above.
type retryPolicy struct {
	attempts  int
	base, max time.Duration
	deadline  time.Duration
}

// trackResident brings the resident-byte model up to date: the streaming
// encode scratch plus the fetch buffers are the only state the spill store
// keeps in RAM.
func (s *DiskStore) trackResident() {
	n := int64(cap(s.scratch))
	for _, v := range s.buf {
		n += int64(8 * len(v))
	}
	s.bumpResident(n - s.resident)
}

// NewDiskStore creates a spill-backed store. dir may be empty (temp dir);
// bytesPerSec of 0 disables the bandwidth model.
func NewDiskStore(dir string, bytesPerSec float64) (*DiskStore, error) {
	f, err := os.CreateTemp(dir, "masc-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("jactensor: spill file: %w", err)
	}
	return &DiskStore{
		f:           f,
		bps:         bytesPerSec,
		retry:       retryPolicy{attempts: retryAttempts, base: retryBase, max: retryMax, deadline: retryDeadline},
		jitter:      rand.New(rand.NewSource(retrySeed)),
		quarantined: map[int]bool{},
		repaired:    map[int]tensors{},
	}, nil
}

// Attach wires telemetry, fault injection and the run's context. Blob
// corruption applies to framed records after sealing (modelling at-rest
// rot); op faults apply to each attempt at the spill file, where the retry
// loop fights them first — and gives up early once the context is done, so
// a canceled run is not held up by backoff against a dying disk. Call it
// before the first Put.
func (s *DiskStore) Attach(a Attachment) { s.attach(a, "disk") }

// spillIO writes p to the spill file at off, or reads p from it, under the
// retry loop, and adds the operation's time, held to the modelled bandwidth,
// to stats.IOTime. EOF is never retried: the bytes are not there, and
// asking again only delays the failure. An operation that retried records
// one disk_retry span, whichever way it ends. A failure names the op, the
// offset and the attempts, and wraps the last cause (the device's, the
// context's, or ErrClosed). The caller holds mu.
func (s *DiskStore) spillIO(write bool, p []byte, off int64) error {
	op := "read"
	if write {
		op = "write"
	}
	if s.f == nil {
		return opErr(op, off, 0, ErrClosed)
	}
	start := time.Now()
	deadline := start.Add(s.retry.deadline)
	var retryT0 int64 // span clock at the first failure; 0 = no retries yet
	finish := func(attempts int, ok bool) {
		if retryT0 == 0 {
			return
		}
		sp := s.ob.rec.StartAt(s.ob.scope, span.DiskRetry, -1, retryT0)
		sp.Attr("attempts", int64(attempts))
		sp.Attr("off", off)
		sp.Attr("write", boolAttr(write))
		sp.Attr("ok", boolAttr(ok))
		sp.End()
	}
	for attempt := 1; ; attempt++ {
		if s.ctx != nil && s.ctx.Err() != nil {
			finish(attempt-1, false)
			return opErr(op, off, attempt-1, s.ctx.Err())
		}
		err := s.fault.OpError(op)
		if err == nil {
			if write {
				_, err = s.f.WriteAt(p, off)
			} else {
				_, err = s.f.ReadAt(p, off)
			}
		}
		if err == nil {
			finish(attempt, true)
			s.stats.IOTime += s.throttle(len(p), time.Since(start))
			return nil
		}
		if retryT0 == 0 {
			retryT0 = s.ob.rec.Now()
		}
		var cause error
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || attempt >= s.retry.attempts:
			cause = err
		case time.Now().After(deadline):
			cause = fmt.Errorf("op deadline %v exceeded: %w", s.retry.deadline, err)
		case !s.sleep(s.backoff(attempt)):
			cause = s.ctx.Err()
		}
		if cause != nil {
			finish(attempt, false)
			return opErr(op, off, attempt, cause)
		}
		s.stats.DiskRetries++
	}
}

// opErr is a failed spill operation.
func opErr(op string, off int64, attempts int, err error) error {
	return fmt.Errorf("%s at offset %d failed after %d attempt(s): %w", op, off, attempts, err)
}

// backoff is the sleep before retry number attempt (1-based): doubling from
// the base, capped, with jitter in [d/2, d] so concurrent stores do not
// retry in lockstep while runs stay reproducible.
func (s *DiskStore) backoff(attempt int) time.Duration {
	d := s.retry.base << uint(attempt-1)
	if d > s.retry.max || d <= 0 {
		d = s.retry.max
	}
	half := d / 2
	return half + time.Duration(s.jitter.Int63n(int64(half)+1))
}

// sleep waits out a backoff, or less if the attached context ends first; it
// reports whether the whole backoff elapsed.
func (s *DiskStore) sleep(d time.Duration) bool {
	if s.ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// throttle holds an n-byte operation that took actual to the modelled
// bandwidth, sleeping out the difference, and returns the operation's time.
func (s *DiskStore) throttle(n int, actual time.Duration) time.Duration {
	if s.bps > 0 {
		if want := time.Duration(float64(n) / s.bps * float64(time.Second)); actual < want {
			time.Sleep(want - actual)
			return want
		}
	}
	return actual
}

// encode frames vals as a sealed blobframe record in the scratch buffer.
func (s *DiskStore) encode(vals []float64, kind byte, step int) []byte {
	need := blobframe.HeaderSize + 8*len(vals)
	if cap(s.scratch) < need {
		s.scratch = make([]byte, need)
	}
	buf := s.scratch[:need]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[blobframe.HeaderSize+8*i:], math.Float64bits(v))
	}
	blobframe.Seal(buf, kind, step)
	return buf
}

// Put implements Store.
func (s *DiskStore) Put(step int, jVals, cVals []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := tensors{jVals, cVals}
	if err := s.admit(step, vals); err != nil {
		return err
	}
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	defer psp.End()
	start := time.Now()
	var offs [nTensors]int64
	for i, v := range vals {
		rec := s.encode(v, tensorTags[i], step)
		rec, _ = s.fault.MutateBlob(step, rec)
		if err := s.spillIO(true, rec, s.off); err != nil {
			return &StepError{Step: step, Op: "put", Tensor: tensorName(i), Err: err}
		}
		offs[i] = s.off
		s.off += int64(len(rec))
	}
	s.offs = append(s.offs, offs)
	s.trackResident()
	s.ob.ioSec.AddDuration(time.Since(start))
	psp.Attr("bytes", s.frameBytes)
	return nil
}

// EndForward implements Store.
func (s *DiskStore) EndForward() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forwardDone = true
	s.stats.StoredBytes = s.off
	s.trackResident()
	s.ob.storedBytes.Add(float64(s.stats.StoredBytes))
	return nil
}

// Fetch implements Store. Every record is verified against its frame
// (magic, kind, step, length, CRC32C) before decoding; verification or
// read failures quarantine the step and return a degradable *StepError.
func (s *DiskStore) Fetch(step int) ([]float64, []float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.forwardDone {
		return nil, nil, &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	}
	if step < 0 || step >= len(s.offs) {
		return nil, nil, fmt.Errorf("jactensor: fetch step %d of %d", step, len(s.offs))
	}
	if r, ok := s.repaired[step]; ok {
		s.ob.fetches.Inc()
		return r[0], r[1], nil
	}
	if s.quarantined[step] {
		return nil, nil, corruptErr(step, "fetch", "", errQuarantined)
	}
	start := time.Now()
	if s.buf.lens() != s.lens {
		for i := range s.buf {
			s.buf[i] = make([]float64, s.lens[i])
		}
	}
	for i, dst := range s.buf {
		need := blobframe.HeaderSize + 8*len(dst)
		if cap(s.scratch) < need {
			s.scratch = make([]byte, need)
		}
		raw := s.scratch[:need]
		if err := s.spillIO(false, raw, s.offs[step][i]); err != nil {
			// A read failure here (after retries) means the record cannot
			// be produced — degradable, like corruption.
			s.quarantined[step] = true
			s.noteCorrupt()
			return nil, nil, &StepError{Step: step, Op: "fetch", Tensor: tensorName(i), degradable: true, Err: err}
		}
		payload, err := blobframe.Open(raw, tensorTags[i], step)
		if err != nil {
			s.quarantined[step] = true
			s.noteCorrupt()
			return nil, nil, corruptErr(step, "fetch", tensorName(i), err)
		}
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*k:]))
		}
	}
	s.trackResident()
	s.ob.fetches.Inc()
	s.ob.ioSec.AddDuration(time.Since(start))
	return s.buf[0], s.buf[1], nil
}

// Repair implements Repairer: the recomputed plaintext shadows the damaged
// on-disk record for any later fetch of the step.
func (s *DiskStore) Repair(step int, jVals, cVals []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < 0 || step >= len(s.offs) {
		return
	}
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	var r tensors
	for i, v := range (tensors{jVals, cVals}) {
		r[i] = append([]float64(nil), v...)
	}
	s.repaired[step] = r
	delete(s.quarantined, step)
	s.stats.Repairs++
}

// Release implements Store; the disk store reuses one fetch buffer, and
// drops any repaired plaintext for the step.
func (s *DiskStore) Release(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.repaired, step)
}

// Stats implements Store.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Store: it closes and removes the spill file, once, even
// when the file is already gone or its close fails; the scratch and the
// fetch buffers leave the meter. Idempotent. A fetch after it fails to read
// and is recomputed.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch, s.buf = nil, tensors{}
	s.bumpResident(-s.resident)
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if rmErr := os.Remove(s.f.Name()); err == nil && !os.IsNotExist(rmErr) {
		err = rmErr
	}
	s.f = nil
	return err
}
