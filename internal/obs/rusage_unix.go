//go:build unix

package obs

import (
	"runtime"
	"syscall"
)

// peakRSSBytes returns the process's peak resident set size from
// getrusage(2), or 0 when the call fails.
func peakRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil || ru.Maxrss < 0 {
		return 0
	}
	// ru_maxrss is in bytes on Darwin and in kilobytes on the other unixes.
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return uint64(ru.Maxrss)
	}
	return uint64(ru.Maxrss) * 1024
}
