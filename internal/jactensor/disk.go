package jactensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
type DiskStore struct {
	storeBase
	spill        *diskio.Store
	jOffs, cOffs []int64
	quarantined  map[int]bool
	repJ, repC   map[int][]float64 // repaired plaintext, keyed by step
	scratch      []byte
	jBuf, cBuf   []float64
}

// trackResident brings the resident-byte model up to date: the streaming
// encode scratch plus the fetch buffers are the only state the spill store
// keeps in RAM.
func (s *DiskStore) trackResident() {
	s.bumpResident(int64(cap(s.scratch)) + int64(8*(len(s.jBuf)+len(s.cBuf))) - s.resident)
}

// NewDiskStore creates a spill-backed store. dir may be empty (temp dir);
// bytesPerSec of 0 disables the bandwidth model.
func NewDiskStore(dir string, bytesPerSec float64) (*DiskStore, error) {
	sp, err := diskio.Create(dir, bytesPerSec)
	if err != nil {
		return nil, err
	}
	return &DiskStore{
		spill:       sp,
		quarantined: map[int]bool{},
		repJ:        map[int][]float64{},
		repC:        map[int][]float64{},
	}, nil
}

// Attach wires telemetry, fault injection and the run's context. Blob
// corruption applies to framed records after sealing (modelling at-rest
// rot); op faults apply to the underlying spill device, where the retry
// policy fights them first — and gives up early once the context is done, so
// a canceled run is not held up by backoff against a dying disk. Call it
// before the first Put.
func (s *DiskStore) Attach(a Attachment) {
	s.attach(a, "disk")
	s.wireSpill(s.spill)
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
	if err := s.admit(step, jVals, cVals); err != nil {
		return err
	}
	psp := s.ob.rec.Start(s.ob.spanParent(), span.Put, step)
	defer psp.End()
	start := time.Now()
	write := func(vals []float64, kind byte, tensor string) (int64, error) {
		rec := s.encode(vals, kind, step)
		rec, _ = s.fault.MutateBlob(step, rec)
		off, err := s.spill.Append(rec)
		if err != nil {
			return 0, &StepError{Step: step, Op: "put", Tensor: tensor, Err: err}
		}
		return off, nil
	}
	off, err := write(jVals, 'J', "J")
	if err != nil {
		return err
	}
	s.jOffs = append(s.jOffs, off)
	off, err = write(cVals, 'C', "C")
	if err != nil {
		return err
	}
	s.cOffs = append(s.cOffs, off)
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
	if !s.forwardDone {
		return nil, nil, &StepError{Step: step, Op: "fetch", Err: errors.New("Fetch before EndForward")}
	}
	if step < 0 || step >= len(s.jOffs) {
		return nil, nil, fmt.Errorf("jactensor: fetch step %d of %d", step, len(s.jOffs))
	}
	if j, ok := s.repJ[step]; ok {
		s.ob.fetches.Inc()
		return j, s.repC[step], nil
	}
	if s.quarantined[step] {
		return nil, nil, corruptErr(step, "fetch", "", errQuarantined)
	}
	start := time.Now()
	if len(s.jBuf) != s.jLen {
		s.jBuf = make([]float64, s.jLen)
		s.cBuf = make([]float64, s.cLen)
	}
	read := func(dst []float64, off int64, kind byte, tensor string) error {
		need := blobframe.HeaderSize + 8*len(dst)
		if cap(s.scratch) < need {
			s.scratch = make([]byte, need)
		}
		raw := s.scratch[:need]
		if err := s.spill.ReadAt(raw, off); err != nil {
			// A read failure here (after retries) means the record cannot
			// be produced — degradable, like corruption.
			s.quarantined[step] = true
			s.noteCorrupt()
			return &StepError{Step: step, Op: "fetch", Tensor: tensor, Degradable: true, Err: err}
		}
		payload, err := blobframe.Open(raw, kind, step)
		if err != nil {
			s.quarantined[step] = true
			s.noteCorrupt()
			return corruptErr(step, "fetch", tensor, err)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return nil
	}
	if err := read(s.jBuf, s.jOffs[step], 'J', "J"); err != nil {
		return nil, nil, err
	}
	if err := read(s.cBuf, s.cOffs[step], 'C', "C"); err != nil {
		return nil, nil, err
	}
	d := time.Since(start)
	s.stats.IOTime += d
	s.trackResident()
	s.ob.fetches.Inc()
	s.ob.ioSec.AddDuration(d)
	return s.jBuf, s.cBuf, nil
}

// Repair implements Repairer: the recomputed plaintext shadows the damaged
// on-disk record for any later fetch of the step.
func (s *DiskStore) Repair(step int, jVals, cVals []float64) {
	if step < 0 || step >= len(s.jOffs) {
		return
	}
	rsp := s.ob.rec.Start(s.ob.spanParent(), span.Repair, step)
	defer rsp.End()
	s.repJ[step] = append([]float64(nil), jVals...)
	s.repC[step] = append([]float64(nil), cVals...)
	delete(s.quarantined, step)
	s.stats.Repairs++
}

// Release implements Store; the disk store reuses one fetch buffer, and
// drops any repaired plaintext for the step.
func (s *DiskStore) Release(step int) {
	delete(s.repJ, step)
	delete(s.repC, step)
}

// Stats implements Store.
func (s *DiskStore) Stats() Stats {
	st := s.stats
	st.IOTime = s.spill.IOTime()
	st.DiskRetries = s.spill.Retries()
	return st
}

// Close implements Store, removing the spill file. Idempotent, like the
// spill store underneath. It touches nothing but the spill, whose lock
// orders it against the last fetch of a canceled sweep's fetcher; that fetch
// then fails to read and is recomputed.
func (s *DiskStore) Close() error { return s.spill.Close() }
