//go:build !unix

package obs

// peakRSSBytes reports 0: there is no getrusage on this platform.
func peakRSSBytes() uint64 { return 0 }
