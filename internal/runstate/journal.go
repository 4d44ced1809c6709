// Package runstate implements the write-ahead run journal that makes a MASC
// sensitivity run crash-durable: an append-only stream of CRC32C-framed
// records (reusing the blobframe format the Jacobian stores already trust)
// holding the run configuration, one checkpoint per accepted forward step —
// the solution vector and the integrator restart state — the end of the
// forward phase and the finished sensitivities. A process death at any byte leaves a journal
// that recovers by scanning to the last valid frame; the torn tail is
// truncated and never trusted.
//
// The journal deliberately stores solver *states*, not Jacobian blobs: the
// recompute source rebuilds every J/C tensor bit-exactly from
// (x_i, t_i, h_i), so on resume the store is re-populated from the journaled
// trajectory prefix and the forward integration restarts from the last
// checkpoint. That keeps the journal an order of magnitude smaller than the
// tensor stream, uniform across every storage strategy, and cheap enough to
// fsync on a short cadence.
//
// Record kinds (the blobframe kind byte):
//
//	'R'  run config, JSON payload — always the first record
//	'S'  forward checkpoint: step index, t, accepted h, next h, cut count,
//	     and the converged solution vector (bit-exact float64 images)
//	'F'  forward integration complete (payload: the final step index)
//	'D'  run complete: the final dO/dp matrix and degraded-step list
//
// 'W' is reserved: earlier binaries journaled each window of a windowed
// reverse sweep under it. Recover stops at it like at any kind it does not
// know, so such a journal resumes by running the reverse sweep again; no
// later kind may reuse the byte.
package runstate

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"masc/internal/blobframe"
)

// FormatVersion is bumped whenever a record layout changes incompatibly, or
// whenever something a resumed run must replay but no record carries changes;
// Recover rejects journals written under a different version with
// ErrFormatVersion. Version 2: the LU column order became minimum degree. The
// pivot order is part of what a resume replays, so a journal checkpointed
// under version 1's RCM order must be refused, not continued into a hybrid
// run no uninterrupted binary would produce. Version 5: the run's shape is one
// opaque Plan value instead of fields of its own. Versions 3, 4, 6, 7 and 8
// followed masczip format changes; a codec change needs no bump, because the
// journal is the only thing a resume reads of the killed run — its store is
// recomputed from the checkpoints, never read back from a spill file.
const FormatVersion = 8

// Record kind bytes.
const (
	KindConfig      byte = 'R'
	KindStep        byte = 'S'
	KindForwardDone byte = 'F'
	KindDone        byte = 'D'
)

// DefaultFsyncEvery is the default fsync cadence: one fsync per this many
// step records (plus one at every phase boundary). The crash window — work
// lost on a kill — is at most this many steps.
const DefaultFsyncEvery = 32

// Config is the journal's first record: the format version and solution
// length Recover checks, the fsync cadence the writer keeps, the circuit
// identity the caller checks, and Plan — the caller's description of the
// run's shape as one JSON value, which runstate stores and returns untouched.
type Config struct {
	FormatVersion int             `json:"format_version"`
	CircuitHash   uint64          `json:"circuit_hash"`
	N             int             `json:"n"`
	FsyncEvery    int             `json:"fsync_every"`
	Plan          json.RawMessage `json:"plan"`
}

// StepRec is one forward checkpoint: everything the integrator needs to
// restart bit-exactly after this accepted step.
type StepRec struct {
	Step  int
	T     float64   // time of the accepted state
	H     float64   // step size that produced it (0 for the DC point)
	NextH float64   // step size the loop would try next
	Cuts  int       // halving counter carried into the next attempt
	X     []float64 // converged solution vector
}

// DoneRec is the terminal record: the finished sensitivities.
type DoneRec struct {
	DOdp     [][]float64
	Degraded []int
}

// Writer appends records to a journal file through a buffered writer,
// fsync'ing on a configurable step cadence and at every phase boundary.
// Safe for concurrent use.
type Writer struct {
	mu         sync.Mutex
	f          *os.File
	bw         *bufio.Writer
	fsyncEvery int
	pending    int // step records since the last fsync
	fsyncT     time.Duration
	fsyncs     int64
	scratch    []byte
}

// Create starts a fresh journal at path (truncating any prior file), writes
// the config record and fsyncs it, so even a step-0 crash leaves a
// recoverable journal.
func Create(path string, cfg *Config) (*Writer, error) {
	cfg.FormatVersion = FormatVersion
	if cfg.FsyncEvery == 0 {
		cfg.FsyncEvery = DefaultFsyncEvery
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstate: create journal: %w", err)
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), fsyncEvery: cfg.FsyncEvery}
	payload, err := json.Marshal(cfg)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runstate: encode config: %w", err)
	}
	if err := w.appendFrameLocked(KindConfig, 0, payload); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.syncLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append reopens an existing journal for appending after recovery: the torn
// tail past offset is truncated (never trusted), and new records continue
// from there. cfg must be the recovered config (it carries the cadence).
func Append(path string, offset int64, cfg *Config) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("runstate: reopen journal: %w", err)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("runstate: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("runstate: seek: %w", err)
	}
	every := cfg.FsyncEvery
	if every == 0 {
		every = DefaultFsyncEvery
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), fsyncEvery: every}
	// Make the truncation itself durable before appending past it.
	if err := w.syncLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// FsyncTime returns the cumulative wall time spent in journal fsyncs.
func (w *Writer) FsyncTime() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncT
}

// Fsyncs returns the number of journal fsyncs performed.
func (w *Writer) Fsyncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncs
}

// appendFrameLocked seals payload into a blobframe and writes it. Caller
// holds w.mu (or is the constructor).
func (w *Writer) appendFrameLocked(kind byte, step int, payload []byte) error {
	need := blobframe.HeaderSize + len(payload)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	frame := w.scratch[:need]
	copy(frame[blobframe.HeaderSize:], payload)
	blobframe.Seal(frame, kind, step)
	if _, err := w.bw.Write(frame); err != nil {
		return fmt.Errorf("runstate: append %q record: %w", kind, err)
	}
	return nil
}

// syncLocked flushes and fsyncs. Caller holds w.mu (or is the constructor).
func (w *Writer) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("runstate: flush journal: %w", err)
	}
	start := time.Now()
	err := w.f.Sync()
	w.fsyncT += time.Since(start)
	w.fsyncs++
	w.pending = 0
	if err != nil {
		return fmt.Errorf("runstate: fsync journal: %w", err)
	}
	return nil
}

// AppendStep journals one forward checkpoint, fsync'ing when the cadence
// comes due.
func (w *Writer) AppendStep(rec *StepRec) error {
	payload := make([]byte, 8*3+4+4+8*len(rec.X))
	binary.LittleEndian.PutUint64(payload[0:], math.Float64bits(rec.T))
	binary.LittleEndian.PutUint64(payload[8:], math.Float64bits(rec.H))
	binary.LittleEndian.PutUint64(payload[16:], math.Float64bits(rec.NextH))
	binary.LittleEndian.PutUint32(payload[24:], uint32(rec.Cuts))
	binary.LittleEndian.PutUint32(payload[28:], uint32(len(rec.X)))
	for i, v := range rec.X {
		binary.LittleEndian.PutUint64(payload[32+8*i:], math.Float64bits(v))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendFrameLocked(KindStep, rec.Step, payload); err != nil {
		return err
	}
	w.pending++
	if w.fsyncEvery > 0 && w.pending >= w.fsyncEvery {
		return w.syncLocked()
	}
	return nil
}

// ForwardDone journals the end of forward integration (n = final step
// index) and makes everything so far durable.
func (w *Writer) ForwardDone(n int) error {
	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, uint32(n))
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendFrameLocked(KindForwardDone, n, payload); err != nil {
		return err
	}
	return w.syncLocked()
}

// Done journals the finished sensitivities and fsyncs. A journal ending in
// a Done record resumes instantly: the result is rebuilt without replaying
// anything.
func (w *Writer) Done(dodp [][]float64, degraded []int) error {
	K := len(dodp)
	P := 0
	if K > 0 {
		P = len(dodp[0])
	}
	payload := make([]byte, 4*3+4*len(degraded)+8*K*P)
	binary.LittleEndian.PutUint32(payload[0:], uint32(K))
	binary.LittleEndian.PutUint32(payload[4:], uint32(P))
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(degraded)))
	off := 12
	for _, d := range degraded {
		binary.LittleEndian.PutUint32(payload[off:], uint32(d))
		off += 4
	}
	for _, row := range dodp {
		if len(row) != P {
			return fmt.Errorf("runstate: ragged DOdp (%d != %d)", len(row), P)
		}
		for _, v := range row {
			binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
			off += 8
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendFrameLocked(KindDone, 0, payload); err != nil {
		return err
	}
	return w.syncLocked()
}

// Close flushes, fsyncs and closes the journal file (the file is kept: it
// is the durable artifact). Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	serr := w.syncLocked()
	cerr := w.f.Close()
	w.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
