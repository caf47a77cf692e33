package dag_test

import (
	"fmt"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/xrand"
)

// BenchmarkCumulativeWeightsCold times what a weighted walk pays on the first
// CumulativeWeights call after the tangle grew: each iteration adds one
// transaction, which invalidates the per-snapshot memo, then asks for the
// weights. The tangle is regrown from its seed every regrow iterations, so
// its size stays within regrow of the label. The file uses only the exported
// API, so it measures an older checkout as well:
//
//	go test -run '^$' -bench CumulativeWeightsCold -cpu 2 -benchmem ./internal/dag
func BenchmarkCumulativeWeightsCold(b *testing.B) {
	const regrow = 32
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("txs=%d", n), func(b *testing.B) {
			var d *dag.DAG
			var rng *xrand.RNG
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%regrow == 0 {
					b.StopTimer()
					rng = xrand.New(int64(n))
					d = dag.New(nil)
					for d.Size() < n {
						growTipBiased(b, d, rng)
					}
					b.StartTimer()
				}
				growTipBiased(b, d, rng)
				if w := d.CumulativeWeights(); len(w) != d.Size() {
					b.Fatalf("%d weights for %d transactions", len(w), d.Size())
				}
			}
		})
	}
}

// growTipBiased adds one transaction approving two parents, each a random
// tip with probability 0.8 and a random transaction otherwise.
func growTipBiased(tb testing.TB, d *dag.DAG, rng *xrand.RNG) {
	tips := d.Tips()
	pick := func() dag.ID {
		if rng.Bool(0.8) {
			return tips[rng.Intn(len(tips))]
		}
		return dag.ID(rng.Intn(d.Size()))
	}
	p1, p2 := pick(), pick()
	if _, err := d.Add(0, d.Size(), []dag.ID{p1, p2}, nil, dag.Meta{}); err != nil {
		tb.Fatal(err)
	}
}
