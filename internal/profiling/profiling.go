// Package profiling is the shared pprof plumbing behind the CLIs'
// -cpuprofile/-memprofile flags, so hot-path work on the simulator is
// profile-driven rather than guessed:
//
//	experiments -exp fig9 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// StartCPU begins CPU profiling into path and returns a stop function that
// flushes and closes the profile.
func StartCPU(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap records an up-to-date heap profile to path.
func WriteHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating memory profile: %w", err)
	}
	defer f.Close()
	runtime.GC() // up-to-date live-object statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("writing memory profile: %w", err)
	}
	return nil
}

// Stopwatch measures a wall-clock duration for advisory timing metrics
// (e.g. the walk times of the Fig. 15 scalability experiment). It exists so
// deterministic packages never touch the clock directly: speclint's detrand
// analyzer forbids time.Now there, and this type is the audited choke point
// for measurements that are reported but never fed back into results.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins a wall-clock measurement.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall-clock time since the stopwatch was started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
