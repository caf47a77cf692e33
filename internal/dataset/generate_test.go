package dataset

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/xrand"
)

// TestConcurrentGenerationSharesOneBudget: federations generated at the same
// time share the process's generation budget, so N of them run at most
// N + GOMAXPROCS − 1 clients at once (GOMAXPROCS as the process started,
// the budget's size), however many goroutines each call would start alone;
// and each federation equals the one its client func builds sequentially.
func TestConcurrentGenerationSharesOneBudget(t *testing.T) {
	const callers, clients = 4, 24
	// Each call asks for more helpers than the whole budget holds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(generation.Size() + 2))

	var live, peak atomic.Int64
	client := func(seed int64) func(id int) *Client {
		return func(id int) *Client {
			n := live.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			defer live.Add(-1)
			time.Sleep(time.Millisecond) // long enough for the calls to overlap
			rng := xrand.New(seed).SplitIndex("client", id)
			b := NewBuilder(8, 20, 0.25, rng.Split("split"))
			for range 20 {
				rng.NormFloat64s(b.Grow(rng.Intn(3)))
			}
			train, test := b.Parts()
			return &Client{ID: id, Cluster: id % 3, Train: train, Test: test}
		}
	}

	got := make([][]*Client, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = generateClients(clients, client(int64(c)))
		}()
	}
	wg.Wait()
	if bound := int64(callers + generation.Size() - 1); peak.Load() > bound {
		t.Errorf("%d concurrent generations ran %d clients at once; the shared budget allows %d", callers, peak.Load(), bound)
	}

	for c := range callers {
		build := client(int64(c))
		for id, g := range got[c] {
			w := build(id)
			if g.ID != w.ID || g.Cluster != w.Cluster || !sameBits(g.Train, w.Train) || !sameBits(g.Test, w.Test) {
				t.Fatalf("federation %d, client %d differs from its sequential build", c, id)
			}
		}
	}
}

// sameBits reports whether two datasets hold the same shape, labels and
// feature bits.
func sameBits(a, b Dataset) bool {
	if a.X.Rows != b.X.Rows || a.X.Cols != b.X.Cols || len(a.X.Data) != len(b.X.Data) || len(a.Y) != len(b.Y) {
		return false
	}
	for i, v := range a.X.Data {
		if math.Float64bits(v) != math.Float64bits(b.X.Data[i]) {
			return false
		}
	}
	for i, y := range a.Y {
		if y != b.Y[i] {
			return false
		}
	}
	return true
}
