// Package workpool provides the process-wide pool of persistent worker
// goroutines that every fan-out in the program runs on: masczip's row chunks
// (the §6.4 parallel compressor) and the reverse sweep's per-step dF/dp and
// RHS shards. Both run thousands of times a simulation, so neither starts
// goroutines per call: the pool starts GOMAXPROCS workers once, on first
// use, and fans indices out to them. Do is a barrier; any goroutine may run
// any index, so a caller's result must not depend on which one did.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// batch tracks one Do call: how many indices are outstanding and a
// single-token channel signalled when the count reaches zero. Batches are
// pooled so a steady-state Do performs no allocation.
type batch struct {
	pending int32
	fn      func(int)
	done    chan struct{}
}

func (b *batch) run(idx int) {
	b.fn(idx)
	if atomic.AddInt32(&b.pending, -1) == 0 {
		b.done <- struct{}{}
	}
}

type task struct {
	b   *batch
	idx int
}

var (
	once  sync.Once
	tasks chan task

	batchPool = sync.Pool{New: func() any {
		return &batch{done: make(chan struct{}, 1)}
	}}
)

func start() {
	n := runtime.GOMAXPROCS(0)
	// A modest buffer lets a caller hand off all of its chunks without
	// blocking even when every worker is mid-task.
	tasks = make(chan task, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range tasks {
				t.b.run(t.idx)
			}
		}()
	}
}

// Do invokes fn(i) for every i in [0, n) and returns when all invocations
// have completed. Indices other than the last are offered to the pool;
// whatever the pool cannot accept immediately — and always the final index
// — runs on the calling goroutine. While waiting for its own batch the
// caller helps drain the global queue, so nested Do calls (a pool worker
// fanning out again) cannot deadlock: queued work always has at least one
// non-blocked executor.
func Do(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	once.Do(start)
	b := batchPool.Get().(*batch)
	b.pending = int32(n)
	b.fn = fn
	for i := 0; i < n-1; i++ {
		select {
		case tasks <- task{b: b, idx: i}:
		default:
			b.run(i)
		}
	}
	b.run(n - 1)
	for {
		select {
		case t := <-tasks:
			t.b.run(t.idx)
		case <-b.done:
			b.fn = nil
			batchPool.Put(b)
			return
		}
	}
}
