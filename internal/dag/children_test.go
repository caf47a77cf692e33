package dag

import (
	"sync"
	"testing"

	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/xrand"
)

// buildRandomDAG grows a tangle of n transactions with 1-2 random parents
// each, shaped like a simulation run (recent transactions preferred).
func buildRandomDAG(t testing.TB, n int, seed int64) *DAG {
	t.Helper()
	rng := xrand.New(seed)
	d := New([]float64{0})
	for i := 1; i < n; i++ {
		lo := 0
		if i > 20 {
			lo = i - 20 // approve recent transactions, like real walks do
		}
		p1 := ID(lo + rng.Intn(i-lo))
		p2 := ID(lo + rng.Intn(i-lo))
		if _, err := d.Add(i, i, []ID{p1, p2}, []float64{float64(i)}, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestCumulativeWeightsParallelMatchesSequential pins the bit-identical
// guarantee of the level-parallel sweep against the reference sequential
// sweep, on DAGs above and below the parallel threshold.
func TestCumulativeWeightsParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{2, 17, cumWeightsParallelMin, 700} {
		d := buildRandomDAG(t, n, int64(n))
		d.SetParallelism(par.NewBudget(4), 8)
		txs := d.snapshot()
		seq := weightMap(0, sweepWeights(txs, 0, ID(len(txs)), nil))
		pll := d.cumulativeWeightsParallel(txs)
		if len(seq) != len(pll) {
			t.Fatalf("n=%d: weight map sizes differ: %d vs %d", n, len(seq), len(pll))
		}
		for id, w := range seq {
			if pll[id] != w {
				t.Fatalf("n=%d: weight of %d = %d (parallel) vs %d (sequential)", n, id, pll[id], w)
			}
		}
	}
}

// TestCumulativeWeightsIgnoresConcurrentGrowth: the sweep must cover exactly
// the snapshot taken at call time, even when children pointing past the
// snapshot exist in the index.
func TestCumulativeWeightsIgnoresConcurrentGrowth(t *testing.T) {
	d := buildRandomDAG(t, 300, 1)
	d.SetParallelism(nil, 4)
	txs := d.snapshot()
	want := weightMap(0, sweepWeights(txs, 0, ID(len(txs)), nil))
	// Grow the DAG: the index now holds children beyond the old snapshot.
	for i := 0; i < 50; i++ {
		tips := d.Tips()
		if _, err := d.Add(1000+i, 1000, []ID{tips[0], tips[len(tips)-1]}, []float64{1}, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	got := d.cumulativeWeightsParallel(txs)
	if len(got) != len(want) {
		t.Fatalf("weight map sizes differ: %d vs %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("weight of %d changed under concurrent growth: %d vs %d", id, got[id], w)
		}
	}
}

// TestChildrenSnapshotImmutable: a snapshot taken before further appends must
// not observe them.
func TestChildrenSnapshotImmutable(t *testing.T) {
	d := New([]float64{0})
	if _, err := d.Add(1, 0, []ID{0}, nil, Meta{}); err != nil {
		t.Fatal(err)
	}
	before := d.Children(0)
	if len(before) != 1 {
		t.Fatalf("want 1 child, got %d", len(before))
	}
	for i := 2; i < 40; i++ {
		if _, err := d.Add(i, 0, []ID{0}, nil, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(before) != 1 || before[0] != 1 {
		t.Fatalf("snapshot mutated by later appends: %v", before)
	}
	if got := d.NumChildren(0); got != 39 {
		t.Fatalf("NumChildren = %d, want 39", got)
	}
}

// TestConcurrentAddAndRead hammers the lock-free read side (Children,
// NumChildren, Get, Size, CumulativeWeights) while a writer appends — the
// race detector turns any unsafe publication into a failure.
func TestConcurrentAddAndRead(t *testing.T) {
	d := New([]float64{0})
	d.SetParallelism(par.NewBudget(2), 2)
	const total = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := d.Size()
				id := ID(rng.Intn(n))
				kids := d.Children(id)
				for _, k := range kids {
					if tx := d.MustGet(k); tx.ID != k {
						t.Errorf("MustGet(%d) returned tx %d", k, tx.ID)
						return
					}
				}
				if got := d.NumChildren(id); got < len(kids) {
					t.Errorf("NumChildren(%d) = %d shrank below earlier snapshot %d", id, got, len(kids))
					return
				}
				if n > 5 {
					// Both sweeps over the same mid-write snapshot must
					// agree: the parallel sweep derives its adjacency from
					// the snapshot's Parents, never the (possibly trailing)
					// live child index.
					txs := d.snapshot()
					seq := weightMap(0, sweepWeights(txs, 0, ID(len(txs)), nil))
					pll := d.cumulativeWeightsParallel(txs)
					for id, w := range seq {
						if pll[id] != w {
							t.Errorf("mid-write sweep divergence at %d: %d vs %d", id, pll[id], w)
							return
						}
					}
				}
			}
		}(int64(r))
	}
	rng := xrand.New(99)
	for i := 1; i < total; i++ {
		p1 := ID(rng.Intn(i))
		p2 := ID(rng.Intn(i))
		if _, err := d.Add(i, i, []ID{p1, p2}, nil, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkChildrenRead(b *testing.B) {
	d := buildRandomDAG(b, 1000, 7)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.New(11)
		for pb.Next() {
			id := ID(rng.Intn(1000))
			kids := d.Children(id)
			_ = kids
		}
	})
}

// BenchmarkCumulativeWeightsParallel1000 measures the level-parallel sweep
// itself (bypassing the per-size memo that makes repeated CumulativeWeights
// calls on a frozen tangle near-free).
func BenchmarkCumulativeWeightsParallel1000(b *testing.B) {
	d := buildRandomDAG(b, 1000, 5)
	d.SetParallelism(nil, 0)
	txs := d.snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.cumulativeWeightsParallel(txs)
	}
}

// BenchmarkCumulativeWeightsCached measures the frozen-tangle fast path the
// round engine's walkers actually hit.
func BenchmarkCumulativeWeightsCached(b *testing.B) {
	d := buildRandomDAG(b, 1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.CumulativeWeights()
	}
}
