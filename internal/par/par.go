// Package par provides the bounded worker pools behind every parallel code
// path of the simulator: the per-client fan-out of a simulation round, the
// per-event evaluations of the asynchronous simulator, and the sweep cells
// (preset, seed, variant) of the experiment harness.
//
// A *Budget is one shared pool handed down through nested fan-outs (sweep
// cell → round engine): ForEachIn/DoIn draw extra workers from the budget and
// fall back to inline execution when it is exhausted, so the whole tree never
// exceeds the budget — and never deadlocks, because a caller runs items on
// its own goroutine without waiting for a slot. With a nil budget each call
// site is bounded by its worker count alone — two nested fan-outs may then
// together run workers² goroutines.
//
// The helpers deliberately know nothing about determinism; they only bound
// concurrency. Callers obtain reproducible results by writing each item's
// output to its own slice index and reducing sequentially afterwards, and by
// deriving all randomness from split RNG streams (xrand.Split*) rather than
// from a shared stream whose consumption order would depend on scheduling.
//
// With workers == 1 all helpers degrade to a plain loop on the calling
// goroutine, so a single-worker run is not merely equivalent to the
// sequential code — it is the sequential code.
package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values <= 0 select
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Budget is a shared worker pool: a fixed number of concurrency slots that
// nested fan-outs draw from. A goroutine calling ForEachIn always processes
// items itself (it occupies the slot it already runs on); additional helper
// goroutines are spawned only while the budget has free slots. Consequently
// at most Size goroutines execute items concurrently, across every nesting
// level, and no call can deadlock waiting for slots.
//
// Accounting: InUse reports the goroutines currently executing items under
// this budget, Peak the maximum ever observed — the quantity tests assert to
// prove that nested fan-outs respect the budget. Both count each goroutine
// once regardless of nesting depth.
//
// A Budget is safe for concurrent use. The accounting assumes the budget has
// a single root: one goroutine (per budget) that enters ForEachIn from
// outside any budgeted work. Multiple independent roots sharing one Budget
// each add one slot of concurrency beyond Size.
type Budget struct {
	size   int
	tokens chan struct{} // capacity size-1: the root supplies the first slot
	inUse  atomic.Int64
	peak   atomic.Int64
	active sync.Map // goroutine id -> struct{}: goroutines inside budgeted loops
}

// NewBudget creates a shared pool with the given number of slots
// (size <= 0 selects runtime.NumCPU()).
func NewBudget(size int) *Budget {
	size = Workers(size)
	return &Budget{size: size, tokens: make(chan struct{}, size-1)}
}

// Size returns the number of concurrency slots.
func (b *Budget) Size() int { return b.size }

// InUse returns the number of goroutines currently executing budgeted items.
func (b *Budget) InUse() int { return int(b.inUse.Load()) }

// Peak returns the maximum InUse ever observed.
func (b *Budget) Peak() int { return int(b.peak.Load()) }

// tryAcquire claims a helper slot without blocking.
func (b *Budget) tryAcquire() bool {
	select {
	case b.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a helper slot.
func (b *Budget) release() { <-b.tokens }

// enterLoop registers the calling goroutine as an active worker and returns
// its id for exitLoop, so the id is parsed once per worker loop. A goroutine
// already registered (a nested ForEachIn on the same budget) is not counted
// again; exitLoop must be passed both results.
func (b *Budget) enterLoop() (id int64, fresh bool) {
	id = goid()
	if _, loaded := b.active.LoadOrStore(id, struct{}{}); loaded {
		return id, false
	}
	n := b.inUse.Add(1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			return id, true
		}
	}
}

// exitLoop undoes enterLoop.
func (b *Budget) exitLoop(id int64, fresh bool) {
	if !fresh {
		return
	}
	b.active.Delete(id)
	b.inUse.Add(-1)
}

// goid returns the runtime id of the calling goroutine, parsed from the
// stack header ("goroutine 123 [running]:"). It is the only way to detect
// nested ForEachIn calls on one goroutine without threading context through
// every item function; the parse runs once per worker loop, not per item.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return -1
	}
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// Spawn runs fn on a new helper goroutine if the budget has a free slot,
// returning true; when the budget is exhausted it returns false without
// blocking and fn does not run. The goroutine holds its slot and is counted
// by InUse/Peak for fn's whole lifetime, so long-lived worker loops (the
// engine scheduler's job drivers) occupy budget capacity exactly like the
// fan-out helpers of ForEachIn do. Spawn is the one sanctioned way to start
// a budgeted background worker: everything else goes through the ForEach
// family, and the speclint budget analyzer forbids naked go statements
// outside this package.
//
// Callers must tolerate false — the usual pattern mirrors ForEachIn's: the
// caller keeps making progress on its own goroutine and retries Spawn when
// more work arrives.
func (b *Budget) Spawn(fn func()) bool {
	if !b.tryAcquire() {
		return false
	}
	go func() {
		defer b.release()
		id, fresh := b.enterLoop()
		defer b.exitLoop(id, fresh)
		fn()
	}()
	return true
}

// ForEachIn invokes fn(i) for every i in [0, n), using at most workers
// goroutines (workers <= 0 selects runtime.NumCPU(); workers == 1 stays
// strictly sequential regardless of the budget), and returns when all
// invocations have finished. The caller processes items inline, and up to
// min(workers, n) - 1 helpers join while b has free slots; a nil budget
// spawns them freely. Items are claimed dynamically, so long items do not
// serialize behind short ones. A panic inside fn is re-raised on the calling
// goroutine after the remaining workers drain (unclaimed items are
// abandoned).
func ForEachIn(b *Budget, workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// Accounting wraps worker loops, not items: a goroutine is counted once
	// for the whole time it processes items, no matter how deeply nested.
	runLoop := func(loop func()) {
		if b == nil {
			loop()
			return
		}
		id, fresh := b.enterLoop()
		defer b.exitLoop(id, fresh)
		loop()
	}

	if workers == 1 {
		runLoop(func() {
			for i := 0; i < n; i++ {
				fn(i)
			}
		})
		return
	}

	var (
		next     atomic.Int64
		abort    atomic.Bool
		mu       sync.Mutex
		panicked any
		wg       sync.WaitGroup
	)
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
				abort.Store(true)
			}
		}()
		for !abort.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for w := 1; w < workers; w++ {
		if b != nil && !b.tryAcquire() {
			break // budget exhausted: the caller still makes progress inline
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b != nil {
				defer b.release()
			}
			runLoop(worker)
		}()
	}
	runLoop(worker)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// DoIn runs the given functions concurrently, bounded by workers and the
// shared budget, and waits for all of them. It is shorthand for ForEachIn
// over a fixed function list.
func DoIn(b *Budget, workers int, fns ...func()) {
	ForEachIn(b, workers, len(fns), func(i int) { fns[i]() })
}
