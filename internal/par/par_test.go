package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefaultsToNumCPU(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Fatalf("Workers(-3) = %d, want %d", got, runtime.NumCPU())
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForEachVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 250
		counts := make([]atomic.Int64, n)
		ForEachIn(nil, workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	ForEachIn(nil, 4, 0, func(int) { t.Fatal("should not run") })
	ForEachIn(nil, 4, -1, func(int) { t.Fatal("should not run") })
}

func TestForEachOutputByIndexIsDeterministic(t *testing.T) {
	n := 100
	run := func(workers int) []int {
		out := make([]int, n)
		ForEachIn(nil, workers, n, func(i int) { out[i] = i * i })
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	ForEachIn(nil, 4, 8, func(i int) {
		if i == 3 {
			panic("kaboom")
		}
	})
	t.Fatal("panic not propagated")
}

// ---- Shared worker budget (Budget) ----

func TestBudgetSizeDefaults(t *testing.T) {
	if NewBudget(0).Size() != Workers(0) {
		t.Fatal("Budget size 0 should default to NumCPU")
	}
	if NewBudget(3).Size() != 3 {
		t.Fatal("explicit size not kept")
	}
}

// gauge measures concurrency from inside the items, independently of the
// budget's own accounting (which holds by construction): enter/leave bracket
// the innermost work and max is the most goroutines ever between them.
type gauge struct{ cur, max atomic.Int64 }

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (g *gauge) leave() { g.cur.Add(-1) }

// TestBudgetBoundsNestedFanOut is the shared-pool guarantee behind the
// unified run API: a sweep-shaped nested fan-out (outer cells, each running
// an inner per-client fan-out) must never execute more goroutines than the
// budget's size — measured inside the items, and read off the pool. The
// second half is the scheduler's shape: a Spawned long-lived helper nesting
// its own fan-out beside the root's.
func TestBudgetBoundsNestedFanOut(t *testing.T) {
	const size = 3
	b := NewBudget(size)
	var (
		g     gauge
		items atomic.Int64
	)
	item := func(int) {
		g.enter()
		items.Add(1)
		time.Sleep(time.Millisecond)
		g.leave()
	}
	ForEachIn(b, size, 5, func(outer int) {
		ForEachIn(b, size, 8, item)
	})
	if items.Load() != 5*8 {
		t.Fatalf("ran %d items, want 40", items.Load())
	}
	if b.InUse() != 0 {
		t.Fatalf("in-use %d after completion, want 0", b.InUse())
	}
	if m := g.max.Load(); m > size || m < 2 {
		t.Fatalf("measured concurrency %d, want 2..%d", m, size)
	}
	if p := b.Peak(); p > size || p < 2 {
		t.Fatalf("peak %d, want 2..%d", p, size)
	}

	helperDone := make(chan struct{})
	if !b.Spawn(func() {
		defer close(helperDone)
		ForEachIn(b, size, 12, item)
	}) {
		t.Fatal("Spawn refused a slot on an idle budget")
	}
	ForEachIn(b, size, 12, item)
	<-helperDone
	if items.Load() != 5*8+24 {
		t.Fatalf("ran %d items, want 64", items.Load())
	}
	// The helper's token is returned after fn returns, just after the
	// channel closes.
	for i := 0; b.InUse() != 0; i++ {
		if i > 1000 {
			t.Fatalf("in-use %d after the helper exited, want 0", b.InUse())
		}
		time.Sleep(time.Millisecond)
	}
	if m := g.max.Load(); m > size {
		t.Fatalf("measured concurrency %d with a spawned helper, budget %d", m, size)
	}
	if p := b.Peak(); p > size {
		t.Fatalf("peak %d exceeds budget %d", p, size)
	}
}

// TestBudgetSizeOneIsSequential: a one-slot budget degrades every fan-out
// to the plain sequential loop.
func TestBudgetSizeOneIsSequential(t *testing.T) {
	b := NewBudget(1)
	var g gauge
	ForEachIn(b, 8, 6, func(outer int) {
		ForEachIn(b, 8, 6, func(inner int) {
			g.enter()
			time.Sleep(100 * time.Microsecond)
			g.leave()
		})
	})
	if g.max.Load() != 1 {
		t.Fatalf("observed concurrency %d under a 1-slot budget", g.max.Load())
	}
	if b.Peak() > 1 {
		t.Fatalf("accounting peak %d under a 1-slot budget", b.Peak())
	}
}

// TestBudgetNestedAccountingCountsGoroutinesOnce: a goroutine running an
// outer item that internally fans out again occupies one slot, not one per
// nesting level.
func TestBudgetNestedAccountingCountsGoroutinesOnce(t *testing.T) {
	b := NewBudget(2)
	var g gauge
	ForEachIn(b, 2, 2, func(outer int) {
		ForEachIn(b, 2, 2, func(inner int) {
			ForEachIn(b, 2, 2, func(deep int) {
				g.enter()
				time.Sleep(time.Millisecond)
				g.leave()
			})
		})
	})
	if m := g.max.Load(); m > 2 {
		t.Fatalf("triple-nested fan-out ran %d goroutines at once on a 2-slot budget", m)
	}
	if p := b.Peak(); p > 2 {
		t.Fatalf("triple-nested fan-out peaked at %d goroutines on a 2-slot budget", p)
	}
	if b.InUse() != 0 {
		t.Fatalf("in-use %d after completion, want 0", b.InUse())
	}
}

// TestNilBudgetFallsBack: a nil budget bounds the call by its worker count
// alone.
func TestNilBudgetFallsBack(t *testing.T) {
	var n atomic.Int64
	ForEachIn(nil, 4, 10, func(i int) { n.Add(1) })
	if n.Load() != 10 {
		t.Fatalf("ran %d items, want 10", n.Load())
	}
}
