//go:build !linux

package main

import (
	"runtime"
	"time"
)

// peakRSSMB falls back to the Go runtime's view of memory obtained from the
// OS where /proc is not available.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS: there is no high-water mark to reset off Linux.
func resetPeakRSS() bool { return false }

// cpuTime is not measured off Linux; CPU-based shares then read as zero.
func cpuTime() time.Duration { return 0 }
