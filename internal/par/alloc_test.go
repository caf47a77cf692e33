package par

import "testing"

// This file uses exported API only, so it can be copied into another
// checkout for before/after rows.

var sink int

func countItem(i int) { sink += i }

// TestForEachInSequentialAllocatesNothing: with one worker the helpers are
// the plain loop on the calling goroutine, with or without a budget.
func TestForEachInSequentialAllocatesNothing(t *testing.T) {
	b := NewBudget(4)
	if a := testing.AllocsPerRun(100, func() { ForEachIn(b, 1, 16, countItem) }); a != 0 {
		t.Fatalf("sequential ForEachIn allocates %.0f objects per call, want 0", a)
	}
}

// BenchmarkDoInPair is the async engine's evaluation pair: two functions on
// a two-slot budget, with the helper slot free or held by someone else (the
// pair then runs inline on the caller).
func BenchmarkDoInPair(b *testing.B) {
	f := func() { sink++ }
	g := func() {}
	b.Run("free", func(b *testing.B) {
		pool := NewBudget(2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DoIn(pool, 2, f, g)
		}
	})
	b.Run("exhausted", func(b *testing.B) {
		pool := NewBudget(2)
		hold, held := make(chan struct{}), make(chan struct{})
		if !pool.Spawn(func() { close(held); <-hold }) {
			b.Fatal("Spawn refused a slot on an idle budget")
		}
		<-held
		defer close(hold)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			DoIn(pool, 2, f, g)
		}
	})
}

// BenchmarkForEachInNested is the sweep shape: an outer fan-out whose items
// each fan out again on the same budget.
func BenchmarkForEachInNested(b *testing.B) {
	pool := NewBudget(4)
	inner := func(int) {}
	outer := func(int) { ForEachIn(pool, 4, 8, inner) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForEachIn(pool, 4, 4, outer)
	}
}
