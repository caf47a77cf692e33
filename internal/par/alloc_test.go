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
