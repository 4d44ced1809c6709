//go:build unix

package jactensor

import "syscall"

// mmapChunks serves chunks as anonymous private mappings: memory the Go
// runtime does not manage, so the blobs add nothing to the heap the GC pacer
// doubles. Pages are committed as blobs are copied in, not when mapped.
type mmapChunks struct{}

func (mmapChunks) alloc(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func (mmapChunks) free(chunk []byte) {
	// Munmap fails only on arguments that are not a mapping; chunk came
	// from alloc, and there is nothing a caller could do about it anyway.
	_ = syscall.Munmap(chunk)
}

func (mmapChunks) offHeap() bool { return true }

// defaultChunks is the chunk source new stores use on this platform.
func defaultChunks() chunkSource { return mmapChunks{} }
