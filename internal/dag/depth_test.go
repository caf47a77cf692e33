package dag

import (
	"slices"
	"sync"
	"testing"

	"github.com/specdag/specdag/internal/xrand"
)

// The depth frontier's own tests and micro-benchmarks: what SampleAtDepth's
// per-state memo and the freeze guard's memoized verdict must keep (the draws
// of a search per call, from any number of goroutines) and what they buy
// (BenchmarkSampleAtDepth, BenchmarkCompactToGuardBlocked — both use only the
// exported API, so the same file measures the commit before them).

// bandedComp is the long-haul shape: two live epochs of five rounds behind
// the paper's 15–25 entry band as the freeze guard.
var bandedComp = Compaction{Width: 5, Live: 2, GuardDepth: 25, GuardDepthMin: 15}

// bandedTangle grows a seeded tangle the way a banded async run does: perRound
// transactions per round, each approving two tips of the round's start (so the
// tangle stays about perRound wide), and CompactTo after every round. The
// first transaction of each round listed in orphans is shunned for good: an
// orphaned tip, kept in the tip set — and every ancestor within GuardDepth
// of it in the guard's reach — forever. It returns the DAG and the last round.
func bandedTangle(tb testing.TB, seed int64, rounds, perRound int, orphans ...int) (*DAG, int) {
	tb.Helper()
	rng := xrand.New(seed)
	d := New([]float64{0, 0})
	if err := d.SetCompaction(bandedComp); err != nil {
		tb.Fatal(err)
	}
	shunned := map[ID]bool{}
	for round := 0; round < rounds; round++ {
		var tips []ID
		for _, t := range d.Tips() {
			if !shunned[t] {
				tips = append(tips, t)
			}
		}
		for i := 0; i < perRound; i++ {
			parents := []ID{tips[rng.Intn(len(tips))], tips[rng.Intn(len(tips))]}
			tx, err := d.Add(i, round, parents, []float64{float64(round), float64(i)}, Meta{})
			if err != nil {
				tb.Fatal(err)
			}
			if i == 0 && slices.Contains(orphans, round) {
				shunned[tx.ID] = true
			}
		}
		if _, err := d.CompactTo(round); err != nil {
			tb.Fatal(err)
		}
	}
	return d, rounds - 1
}

// benchTangle is the benchmarks' fixture: ~600 live transactions above the
// floor, a few orphaned tips, and an aged-out epoch the guard still blocks.
func benchTangle(tb testing.TB) (*DAG, int) {
	d, round := bandedTangle(tb, 42, 100, 12, 92, 95, 98)
	live := d.Size() - int(d.LiveFloor())
	target := bandedComp.epochOfRound(round) - bandedComp.Live
	if live < 400 || live > 800 || len(d.FrozenEpochs()) == 0 || len(d.FrozenEpochs()) > target {
		tb.Fatalf("fixture drifted: %d live transactions, %d frozen epochs, target epoch %d", live, len(d.FrozenEpochs()), target)
	}
	return d, round
}

// sampleIDs draws k entries from one rng stream.
func sampleIDs(d *DAG, seed int64, k, minDepth, maxDepth int) []ID {
	rng := xrand.New(seed)
	out := make([]ID, k)
	for i := range out {
		out[i] = d.SampleAtDepth(rng, minDepth, maxDepth).ID
	}
	return out
}

// TestSampleAtDepthConcurrent: walkers that share one tangle state — and so
// one memo entry, filled by whichever misses first — draw exactly what each
// would have drawn alone, before and after the tangle grows. Meant for
// -race -count=10.
func TestSampleAtDepthConcurrent(t *testing.T) {
	const walkers, draws = 8, 32
	d, round := bandedTangle(t, 7, 60, 8, 50, 55)
	if oldest := d.Tips()[0]; int(oldest) > 51*8 {
		t.Fatalf("fixture's oldest tip is %d, want the orphan of round 50", oldest)
	}
	check := func(stage string) {
		t.Helper()
		// Sequential reference: the model's draw over a full depth map, so it
		// shares nothing with the memo.
		depths := d.Depths()
		want := make([][]ID, walkers)
		for w := range want {
			lo, hi := 15-w%2, 25
			rng := xrand.New(int64(w))
			for i := 0; i < draws; i++ {
				want[w] = append(want[w], sampleModel(rng, depths, lo, hi))
			}
		}
		got := make([][]ID, walkers)
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Two bands in flight: even and odd walkers evict each other.
				got[w] = sampleIDs(d, int64(w), draws, 15-w%2, 25)
			}(w)
		}
		wg.Wait()
		for w := range got {
			for i := range got[w] {
				if got[w][i] != want[w][i] {
					t.Fatalf("%s: walker %d draw %d = %d, alone it draws %d", stage, w, i, got[w][i], want[w][i])
				}
			}
		}
	}
	check("frozen state")
	tips := d.Tips()
	if _, err := d.Add(0, round+1, []ID{tips[len(tips)-1], tips[len(tips)-2]}, []float64{1, 1}, Meta{}); err != nil {
		t.Fatal(err)
	}
	check("after Add")
}

// TestSampleAtDepthHitAllocatesNothing: every walk of a tangle state after the
// first reads the memo — no lock, no search, no allocation — whether the band
// holds candidates or is empty (the genesis fallback).
func TestSampleAtDepthHitAllocatesNothing(t *testing.T) {
	d, _ := bandedTangle(t, 7, 60, 8, 50, 55)
	rng := xrand.New(1)
	for _, band := range [][2]int{{15, 25}, {200, 300}} {
		entry := d.SampleAtDepth(rng, band[0], band[1]) // fill
		if (band[0] == 200) != entry.IsGenesis() {
			t.Fatalf("band %v entered at %d", band, entry.ID)
		}
		if allocs := testing.AllocsPerRun(200, func() { d.SampleAtDepth(rng, band[0], band[1]) }); allocs != 0 {
			t.Errorf("band %v: a memo hit allocates %v times", band, allocs)
		}
	}
}

var benchSink ID

// BenchmarkSampleAtDepth: the walk entry draw on an unchanged tangle. "miss"
// alternates two bounds so every call searches; "hit" is what all but the
// first walk of a tangle state pay.
func BenchmarkSampleAtDepth(b *testing.B) {
	d, _ := benchTangle(b)
	rng := xrand.New(1)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += d.SampleAtDepth(rng, 15, 25-i%2).ID
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += d.SampleAtDepth(rng, 15, 25).ID
		}
	})
}

// BenchmarkCompactToGuardBlocked: CompactTo while an aged-out epoch waits
// for the guard — every event of a long-haul run between two freezes.
// "recheck" repeats the call on an unchanged tangle; "evaluate" makes each
// call work the verdict out anew (SetCompaction drops what was known): the
// dead-tip analysis and the search from the live tips that the first
// CompactTo after an Add pays, on top of the one search from all tips that
// "miss" above measures.
func BenchmarkCompactToGuardBlocked(b *testing.B) {
	d, round := benchTangle(b)
	floor := d.LiveFloor()
	run := func(b *testing.B, before func()) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			before()
			got, err := d.CompactTo(round)
			if err != nil || got != floor {
				b.Fatalf("CompactTo = %d, %v; the guard should hold the floor at %d", got, err, floor)
			}
		}
	}
	b.Run("recheck", func(b *testing.B) { run(b, func() {}) })
	b.Run("evaluate", func(b *testing.B) {
		run(b, func() {
			if err := d.SetCompaction(bandedComp); err != nil {
				b.Fatal(err)
			}
		})
	})
}
