// Package diskio provides the append-only spill file used by the disk-based
// Jacobian store, with an optional bandwidth throttle that models the
// paper's measurement SSD (~0.5 GB/s) deterministically on any host, so the
// Figure-7 disk-vs-compression crossover reproduces regardless of how fast
// the local filesystem actually is.
//
// Every operation runs under a bounded retry policy with exponential
// backoff, deterministic jitter and a per-op deadline, so a transient
// device error (EINTR, a flaky network mount, an injected EIO) costs a few
// milliseconds instead of a multi-hour run. Errors that survive the retry
// budget come back as *OpError naming the operation, offset and attempt
// count.
package diskio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"masc/internal/faultinject"
	"masc/internal/obs/span"
)

// ErrClosed is returned by operations on a store after Close.
var ErrClosed = errors.New("diskio: store is closed")

// RetryPolicy bounds how hard a store fights transient I/O errors.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (min 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. 0 means uncapped.
	MaxDelay time.Duration
	// OpDeadline bounds the wall-clock time of one operation including
	// retries and backoff; once exceeded, no further attempts are made.
	// 0 disables the deadline.
	OpDeadline time.Duration
}

// DefaultRetryPolicy absorbs short transient faults (a handful of
// milliseconds) without letting a dead device stall a step for more than a
// couple of seconds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		OpDeadline:  2 * time.Second,
	}
}

// OpError is a disk operation failure after retries were exhausted (or
// skipped, for non-retryable conditions such as ErrClosed).
type OpError struct {
	Op       string // "write" or "read"
	Off      int64  // file offset of the operation
	Attempts int    // attempts made before giving up
	Err      error  // the last underlying error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("diskio: %s at offset %d failed after %d attempt(s): %v",
		e.Op, e.Off, e.Attempts, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// Store is an append-only spill file with random-access reads.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	off     int64
	bps     float64 // simulated bytes/second; 0 disables throttling
	ioTime  time.Duration
	ioBytes int64
	retry   RetryPolicy
	retries int64
	jrng    *rand.Rand // deterministic backoff jitter
	fault   *faultinject.Injector
	ctx     context.Context // optional; cancels retry backoff

	spans      *span.Recorder
	spanParent span.ID
}

// Create opens a spill file in dir (os.TempDir() if empty). bytesPerSec of
// zero disables the bandwidth simulation. The store starts with
// DefaultRetryPolicy.
func Create(dir string, bytesPerSec float64) (*Store, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "masc-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("diskio: %w", err)
	}
	return &Store{
		f:     f,
		path:  filepath.Join(dir, filepath.Base(f.Name())),
		bps:   bytesPerSec,
		retry: DefaultRetryPolicy(),
		jrng:  rand.New(rand.NewSource(0x6d617363)), // deterministic across runs
	}, nil
}

// SetRetryPolicy replaces the retry policy (a zero policy means one attempt,
// no backoff, no deadline).
func (s *Store) SetRetryPolicy(p RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retry = p
}

// SetContext attaches a cancellation context consulted by the retry loop:
// once ctx is done, in-flight backoff is abandoned and the operation fails
// with an *OpError wrapping ctx's error, so a per-run deadline is not
// stretched by a dying device's full retry budget. nil (the default)
// disables the check.
func (s *Store) SetContext(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = ctx
}

// SetFault installs a fault injector consulted before every physical disk
// attempt. nil (the default) injects nothing.
func (s *Store) SetFault(in *faultinject.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = in
}

// SetSpans installs a span recorder and the parent span retry spans attach
// under. Only operations that actually retried emit a span (kind
// disk_retry), so the fault-free fast path stays untouched.
func (s *Store) SetSpans(rec *span.Recorder, parent span.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = rec
	s.spanParent = parent
}

// Path returns the spill file's location (for tests that audit cleanup).
func (s *Store) Path() string { return s.path }

// Retries returns how many retry attempts the store has performed.
func (s *Store) Retries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

// backoff returns the sleep before retry number `attempt` (1-based):
// exponential growth from BaseDelay, capped at MaxDelay, with deterministic
// jitter in [d/2, d] so concurrent stores don't retry in lockstep while
// runs stay reproducible.
func (s *Store) backoff(attempt int) time.Duration {
	d := s.retry.BaseDelay << uint(attempt-1)
	if s.retry.MaxDelay > 0 && (d > s.retry.MaxDelay || d <= 0) {
		d = s.retry.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(s.jrng.Int63n(int64(half)+1))
}

// withRetry runs one physical operation under the retry policy. The caller
// holds s.mu (the store is fully serialized, so sleeping under the lock
// does not change concurrency behavior, only op latency).
func (s *Store) withRetry(op string, off int64, f func() error) error {
	maxAttempts := s.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var deadline time.Time
	if s.retry.OpDeadline > 0 {
		deadline = time.Now().Add(s.retry.OpDeadline)
	}
	var err error
	var retryT0 int64 // span clock at the first failure; 0 = no retries yet
	finish := func(attempt int, ok bool) {
		if retryT0 == 0 || s.spans == nil {
			return
		}
		sp := s.spans.StartAt(s.spanParent, span.DiskRetry, -1, retryT0)
		sp.Attr("attempts", int64(attempt))
		sp.Attr("off", off)
		sp.Attr("write", boolInt(op == "write"))
		sp.Attr("ok", boolInt(ok))
		sp.End()
	}
	for attempt := 1; ; attempt++ {
		if s.ctx != nil && s.ctx.Err() != nil {
			finish(attempt-1, false)
			return &OpError{Op: op, Off: off, Attempts: attempt - 1, Err: s.ctx.Err()}
		}
		if err = s.fault.OpError(op); err == nil {
			err = f()
		}
		if err == nil {
			finish(attempt, true)
			return nil
		}
		if retryT0 == 0 && s.spans != nil {
			retryT0 = s.spans.Now()
		}
		// EOF is deterministic (the bytes are not there), not a transient
		// device fault: retrying it only delays the typed failure.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			finish(attempt, false)
			return &OpError{Op: op, Off: off, Attempts: attempt, Err: err}
		}
		if attempt >= maxAttempts {
			finish(attempt, false)
			return &OpError{Op: op, Off: off, Attempts: attempt, Err: err}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			finish(attempt, false)
			return &OpError{Op: op, Off: off, Attempts: attempt,
				Err: fmt.Errorf("op deadline %v exceeded: %w", s.retry.OpDeadline, err)}
		}
		if !s.sleep(s.backoff(attempt)) {
			return &OpError{Op: op, Off: off, Attempts: attempt, Err: s.ctx.Err()}
		}
		s.retries++
	}
}

// sleep blocks for d or until the store's context is canceled. It reports
// whether the full backoff elapsed (true when no context is attached).
func (s *Store) sleep(d time.Duration) bool {
	if s.ctx == nil {
		time.Sleep(d)
		return true
	}
	if d <= 0 {
		return s.ctx.Err() == nil
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

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// throttle blocks until the operation of n bytes would have completed on
// the simulated device, given it actually took `actual`.
func (s *Store) throttle(n int, actual time.Duration) time.Duration {
	if s.bps <= 0 {
		return actual
	}
	want := time.Duration(float64(n) / s.bps * float64(time.Second))
	if actual < want {
		time.Sleep(want - actual)
		return want
	}
	return actual
}

// Append writes p at the end of the file and returns its offset.
func (s *Store) Append(p []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, &OpError{Op: "write", Off: s.off, Attempts: 0, Err: ErrClosed}
	}
	start := time.Now()
	off := s.off
	err := s.withRetry("write", off, func() error {
		_, werr := s.f.WriteAt(p, off)
		return werr
	})
	if err != nil {
		return 0, err
	}
	s.off += int64(len(p))
	s.ioTime += s.throttle(len(p), time.Since(start))
	s.ioBytes += int64(len(p))
	return off, nil
}

// ReadAt fills p from the given offset. A short read (EOF before len(p)
// bytes) is an error, like io.ReaderAt demands.
func (s *Store) ReadAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return &OpError{Op: "read", Off: off, Attempts: 0, Err: ErrClosed}
	}
	start := time.Now()
	err := s.withRetry("read", off, func() error {
		_, rerr := s.f.ReadAt(p, off)
		return rerr
	})
	if err != nil {
		return err
	}
	s.ioTime += s.throttle(len(p), time.Since(start))
	s.ioBytes += int64(len(p))
	return nil
}

// Size returns the bytes written so far.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.off
}

// IOTime returns the cumulative (simulated) I/O time.
func (s *Store) IOTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ioTime
}

// Close closes and removes the spill file. It is idempotent: the second and
// later calls return nil, and the temp file is removed exactly once even
// when the underlying close fails.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if rmErr := os.Remove(s.path); err == nil && !os.IsNotExist(rmErr) {
		err = rmErr
	}
	s.f = nil
	return err
}
