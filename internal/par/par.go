// Package par provides the bounded worker pools behind every parallel code
// path of the simulator: the per-client fan-out of a simulation round, the
// async engine's lookahead windows, the sweep cells (preset, seed, variant)
// of the experiment harness, and federation generation. The last
// runs outside any budget (a nil one, GOMAXPROCS workers): a federation is
// generated before the engines that would share a budget exist.
//
// A *Budget is one shared pool handed down through nested fan-outs (sweep
// cell → round engine): ForEachIn draws extra workers from the budget and
// falls back to inline execution when it is exhausted, so the whole tree
// never exceeds the budget — and never deadlocks, because a caller runs items
// on its own goroutine without waiting for a slot. The budget's accounting is
// the slots themselves: what is in use is what has been handed out, so there
// is no registry of goroutines beside them. With a nil budget each call
// site is bounded by its worker count alone — two nested fan-outs may then
// together run workers² goroutines.
//
// The helpers deliberately know nothing about determinism; they only bound
// concurrency. Callers obtain reproducible results by writing each item's
// output to its own slice index and reducing sequentially afterwards, and by
// deriving all randomness from split RNG streams (xrand.Split*) rather than
// from a shared stream whose consumption order would depend on scheduling.
//
// With workers == 1 ForEachIn degrades to a plain loop on the calling
// goroutine, so a single-worker run is not merely equivalent to the
// sequential code — it is the sequential code.
package par

import (
	"runtime"
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
// Accounting is the slots: every helper goroutine holds exactly one token
// for its whole life, whatever it nests, and a caller running items inline
// holds none. InUse is therefore the number of tokens out, and Peak the most
// ever out plus one — the helpers and the root that spawned them — which is
// the quantity tests assert to prove that nested fan-outs respect the budget.
//
// A Budget is safe for concurrent use. The accounting assumes the budget has
// a single root: one goroutine (per budget) that enters ForEachIn from
// outside any budgeted work. Multiple independent roots sharing one Budget
// each add one slot of concurrency beyond Size.
type Budget struct {
	size   int
	tokens chan struct{} // capacity size-1: the root supplies the first slot
	peak   atomic.Int64  // most tokens ever held at once
}

// NewBudget creates a shared pool with the given number of slots
// (size <= 0 selects runtime.NumCPU()).
func NewBudget(size int) *Budget {
	size = Workers(size)
	return &Budget{size: size, tokens: make(chan struct{}, size-1)}
}

// Size returns the number of concurrency slots.
func (b *Budget) Size() int { return b.size }

// InUse returns the number of helper goroutines currently holding a slot.
func (b *Budget) InUse() int { return len(b.tokens) }

// Peak returns the most goroutines that ever executed budgeted work at once:
// the helper high-water mark plus the root.
func (b *Budget) Peak() int { return int(b.peak.Load()) + 1 }

// tryAcquire claims a helper slot without blocking.
func (b *Budget) tryAcquire() bool {
	select {
	case b.tokens <- struct{}{}:
	default:
		return false
	}
	// len includes this goroutine's own token. A release racing with the
	// read can make the mark one low, never high: it cannot exceed Size-1.
	n := int64(len(b.tokens))
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			return true
		}
	}
}

// release returns a helper slot.
func (b *Budget) release() { <-b.tokens }

// Spawn runs fn on a new helper goroutine if the budget has a free slot,
// returning true; when the budget is exhausted it returns false without
// blocking and fn does not run. The goroutine holds its slot (and so is
// counted by InUse/Peak) for fn's whole lifetime, so long-lived worker loops
// (the engine scheduler's job drivers) occupy budget capacity exactly like
// the fan-out helpers of ForEachIn do. Spawn is the one sanctioned way to start
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
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
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
			worker()
		}()
	}
	worker()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
