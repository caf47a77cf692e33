package dag

import (
	"sync"
	"testing"

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
				// The memo is read and filled while Add publishes: whatever
				// snapshot CumulativeWeights swept (or found memoized), its
				// map must be the sweep of a prefix of the tangle.
				w := d.CumulativeWeights()
				want := weightMap(0, sweepWeights(d.snapshot(), 0, ID(len(w)), nil))
				if len(want) != len(w) {
					t.Errorf("mid-write weights cover %d transactions, the prefix sweep %d", len(w), len(want))
					return
				}
				for id, c := range want {
					if w[id] != c {
						t.Errorf("mid-write weight of %d = %d, the prefix sweep says %d", id, w[id], c)
						return
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

// BenchmarkCumulativeWeightsCached measures the frozen-tangle fast path the
// round engine's walkers actually hit.
func BenchmarkCumulativeWeightsCached(b *testing.B) {
	d := buildRandomDAG(b, 1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.CumulativeWeights()
	}
}
