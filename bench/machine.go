package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on share their cores with other tenants:
// the same replicate on the same inputs takes 1.2 s in one minute and 1.6 s
// in the next, and stays there for minutes, so ten runs of unchanged code
// spread by a quarter whatever is done inside a run. What a run can do is
// watch the machine while it measures. The reference is a fixed piece of work
// that belongs to the benchmark and calls nothing of the program: it is timed
// before and after every replicate, and the replicate's timings are divided
// (its rates multiplied) by the machine factor — the mean of the two
// reference times over referenceNominalMS. Times are thus reported in seconds
// of a machine that runs the reference in referenceNominalMS, which the
// builder's machine does when it has its cores to itself; machine_factor is
// reported beside them, and a time multiplied by it is the time on the clock.
//
// A change to the program moves the timings and not the reference, so it
// shows in full; a busy neighbour moves both.
const referenceNominalMS = 60.0

// referenceMS does the reference work once and returns how long it took, in
// ms. Its two phases, about equally long, are the two things the workloads
// spend their time on: float64 multiply-adds over vectors that fit the L1
// cache (the nn kernels behind training and evaluation) and dependent loads
// across 2 MB (walks over the tangle's maps and slices). Each phase runs on
// nproc goroutines at a time, as the workloads do. The working sets are built
// for the call, untimed, and dropped after it, so that they are in no
// replicate's heap or resident set; the timed part allocates nothing and
// starts from a finished collection: work for the collector would make it
// depend on the heap the program under test leaves behind.
func referenceMS(nproc int) float64 {
	const vec, slots = 4096, 1 << 19
	x, y := make([][]float64, nproc), make([][]float64, nproc)
	next := make([][]int32, nproc)
	sink := make([]float64, nproc)
	for g := range sink {
		x[g], y[g] = make([]float64, vec), make([]float64, vec)
		for i := range x[g] {
			x[g][i] = float64(i%17) * 0.25
		}
		// One cycle through every slot, in strides no prefetcher follows.
		next[g] = make([]int32, slots)
		for i, at := 0, 0; i < slots; i++ {
			to := (at + 300007) % slots
			next[g][at] = int32(to)
			at = to
		}
	}
	// together runs work on every goroutine's working set at once and waits.
	together := func(work func(g int)) {
		var wg sync.WaitGroup
		for g := range sink {
			wg.Add(1)
			//speclint:allow budget the reference work may not run on the program's own pool: a change to par would move it
			go func() {
				defer wg.Done()
				work(g)
			}()
		}
		wg.Wait()
	}

	// No collection cycle runs beside the timed part: one the replicate's
	// garbage started would take a quarter of the cores for as long as the
	// program's heap is large.
	runtime.GC()
	t0 := time.Now()
	together(func(g int) {
		x, y := x[g], y[g]
		for it := 0; it < 12_000; it++ {
			c := 1 / float64(it+1)
			for i := range x {
				y[i] += c * x[i]
			}
		}
		sink[g] += y[7]
	})
	together(func(g int) {
		next, at := next[g], int32(g)
		for i := 0; i < 1_500_000; i++ {
			at = next[at]
		}
		sink[g] += float64(at)
	})
	took := ms(time.Since(t0))
	runtime.KeepAlive(sink)
	return took
}

// scaled reports how a metric of the given unit follows the machine factor:
// +1 for a duration (divided by the factor), -1 for a rate (multiplied), 0
// for everything that is not a timing.
func scaled(unit string) int {
	switch unit {
	case "s", "ms":
		return 1
	case "1/s":
		return -1
	}
	return 0
}
