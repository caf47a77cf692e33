package tipselect

import (
	"sync"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/xrand"
)

// buildWideDAG grows a tangle with some width so concurrent walks exercise
// Children/MustGet/Tips on interior nodes, mirroring what the parallel round
// engine does (many walkers, no writers).
func buildWideDAG(t *testing.T) *dag.DAG {
	t.Helper()
	d := dag.New([]float64{0.5})
	rng := xrand.New(7)
	for i := 0; i < 120; i++ {
		tips := d.Tips()
		p1 := tips[rng.Intn(len(tips))]
		p2 := tips[rng.Intn(len(tips))]
		if _, err := d.Add(i%10, i/10, []dag.ID{p1, p2}, []float64{float64(i) / 120}, dag.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestConcurrentWalksOverSharedDAG is the -race-exercised guarantee behind
// the parallel round engine: any number of walkers — each with its own
// evaluator and RNG, as each simulated client has — may walk one DAG
// concurrently, and every walker's choice is reproducible regardless of
// scheduling. Every other walker scores through one shared EvalCache, so
// its scoring scratch and its free list of walk buffers are raced too.
func TestConcurrentWalksOverSharedDAG(t *testing.T) {
	d := buildWideDAG(t)
	selectors := []Selector{
		AccuracyWalk{Alpha: 10},
		AccuracyWalk{Alpha: 1, Norm: NormDynamic, DepthMin: 2, DepthMax: 5},
		WeightedWalk{Alpha: 0.5},
		UniformWalk{},
		URTS{},
	}
	const walkers = 16

	run := func() []dag.ID {
		picked := make([]dag.ID, walkers)
		var reused []float64
		shared := NewEvalCache(func(p []float64) float64 { return p[0] }, func(ps [][]float64) []float64 {
			reused = reused[:0]
			for _, p := range ps {
				reused = append(reused, p[0])
			}
			return reused
		})
		var wg sync.WaitGroup
		wg.Add(walkers)
		for w := 0; w < walkers; w++ {
			go func(w int) {
				defer wg.Done()
				var eval Evaluator = EvaluatorFunc(func(tx *dag.Transaction) float64 {
					return tx.Params[0]
				})
				if w%2 == 1 {
					eval = shared
				}
				rng := xrand.New(int64(1000 + w))
				tip, _ := selectors[w%len(selectors)].SelectTip(d, eval, rng)
				picked[w] = tip.ID
			}(w)
		}
		wg.Wait()
		return picked
	}

	a, b := run(), run()
	for w := range a {
		if !d.IsTip(a[w]) && d.NumChildren(a[w]) != 0 {
			t.Fatalf("walker %d stopped on non-tip %d", w, a[w])
		}
		if a[w] != b[w] {
			t.Fatalf("walker %d not reproducible under concurrency: %d vs %d", w, a[w], b[w])
		}
	}
}
