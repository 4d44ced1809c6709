//go:build !unix

package jactensor

// defaultChunks is the chunk source new stores use on this platform: there
// is no anonymous mmap in package syscall here, so blobs stay on the heap.
func defaultChunks() chunkSource { return heapChunks{} }
