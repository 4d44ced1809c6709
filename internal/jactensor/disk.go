package jactensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"masc/internal/blobframe"
	"masc/internal/diskio"
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
// mu orders the reverse sweep's calls (Fetch, Repair, Release) against
// Close, which may race the last fetch of a canceled sweep's fetcher.
type DiskStore struct {
	storeBase
	mu          sync.Mutex
	spill       *diskio.Store
	offs        [][nTensors]int64 // each step's records in the spill file
	quarantined map[int]bool
	repaired    map[int]tensors // repaired plaintext, keyed by step
	scratch     []byte
	buf         tensors // the fetch buffers
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
	sp, err := diskio.Create(dir, bytesPerSec)
	if err != nil {
		return nil, err
	}
	return &DiskStore{spill: sp, quarantined: map[int]bool{}, repaired: map[int]tensors{}}, nil
}

// Attach wires telemetry, fault injection and the run's context. Blob
// corruption applies to framed records after sealing (modelling at-rest
// rot); op faults apply to the underlying spill device, where the retry
// policy fights them first — and gives up early once the context is done, so
// a canceled run is not held up by backoff against a dying disk. Call it
// before the first Put.
func (s *DiskStore) Attach(a Attachment) {
	s.attach(a, "disk")
	s.spill.SetFault(s.fault)
	s.spill.SetSpans(s.ob.rec, s.ob.scope)
	if s.ctx != nil {
		s.spill.SetContext(s.ctx)
	}
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
		off, err := s.spill.Append(rec)
		if err != nil {
			return &StepError{Step: step, Op: "put", Tensor: tensorName(i), Err: err}
		}
		offs[i] = off
	}
	s.offs = append(s.offs, offs)
	s.trackResident()
	s.ob.ioSec.AddDuration(time.Since(start))
	psp.Attr("bytes", s.frameBytes)
	return nil
}

// EndForward implements Store.
func (s *DiskStore) EndForward() error {
	s.forwardDone = true
	s.stats.StoredBytes = s.spill.Size()
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
		if err := s.spill.ReadAt(raw, s.offs[step][i]); err != nil {
			// A read failure here (after retries) means the record cannot
			// be produced — degradable, like corruption.
			s.quarantined[step] = true
			s.noteCorrupt()
			return nil, nil, &StepError{Step: step, Op: "fetch", Tensor: tensorName(i), Degradable: true, Err: err}
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
	d := time.Since(start)
	s.stats.IOTime += d
	s.trackResident()
	s.ob.fetches.Inc()
	s.ob.ioSec.AddDuration(d)
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
	st := s.stats
	st.IOTime = s.spill.IOTime()
	st.DiskRetries = s.spill.Retries()
	return st
}

// Close implements Store, removing the spill file; the scratch and the fetch
// buffers leave the meter. Idempotent, like the spill store underneath. A
// fetch after it fails to read and is recomputed.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch, s.buf = nil, tensors{}
	s.bumpResident(-s.resident)
	return s.spill.Close()
}
