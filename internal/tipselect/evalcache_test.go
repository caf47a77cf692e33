package tipselect

import (
	"sync"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/xrand"
)

// cacheTestDAG builds a small diamond-heavy tangle for walk tests.
func cacheTestDAG(t testing.TB, n int, seed int64) *dag.DAG {
	t.Helper()
	rng := xrand.New(seed)
	d := dag.New([]float64{0})
	for i := 1; i < n; i++ {
		p1 := dag.ID(rng.Intn(i))
		p2 := dag.ID(rng.Intn(i))
		if _, err := d.Add(i, i, []dag.ID{p1, p2}, []float64{float64(i)}, dag.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// scoreByFirstParam is a deterministic stand-in scorer: accuracy is a pure
// function of the (single-element) parameter vector.
func scoreByFirstParam(params []float64) float64 {
	return 1 / (1 + params[0])
}

func TestEvalCacheHitsMissesAndBatch(t *testing.T) {
	d := cacheTestDAG(t, 10, 1)
	var batchCalls, batchSize int
	e := NewEvalCache(scoreByFirstParam, func(ps [][]float64) []float64 {
		batchCalls++
		batchSize += len(ps)
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = scoreByFirstParam(p)
		}
		return out
	})

	txs := []*dag.Transaction{d.MustGet(1), d.MustGet(2), d.MustGet(3)}
	accs := e.AccuracyManyInto(nil, txs)
	for i, tx := range txs {
		if want := scoreByFirstParam(tx.Params); accs[i] != want {
			t.Fatalf("accs[%d] = %v, want %v", i, accs[i], want)
		}
	}
	if e.Misses() != 3 || e.Hits() != 0 {
		t.Fatalf("after cold batch: hits=%d misses=%d, want 0/3", e.Hits(), e.Misses())
	}
	if batchCalls != 1 || batchSize != 3 {
		t.Fatalf("cold batch used %d calls over %d vectors, want 1 call over 3", batchCalls, batchSize)
	}

	// Second batch: 2 hits, 1 new miss — the miss goes through Score (single
	// element batches skip ScoreBatch).
	txs2 := []*dag.Transaction{d.MustGet(2), d.MustGet(4), d.MustGet(3)}
	accs2 := e.AccuracyManyInto(nil, txs2)
	if accs2[0] != accs[1] {
		t.Fatal("cache returned a different value for the same transaction")
	}
	if e.Hits() != 2 || e.Misses() != 4 {
		t.Fatalf("after warm batch: hits=%d misses=%d, want 2/4", e.Hits(), e.Misses())
	}
	if batchCalls != 1 {
		t.Fatalf("single-miss batch should not have used ScoreBatch (calls=%d)", batchCalls)
	}

	// Single-transaction path.
	if got := e.Accuracy(d.MustGet(4)); got != accs2[1] {
		t.Fatalf("Accuracy = %v, want cached %v", got, accs2[1])
	}
	if e.Hits() != 3 {
		t.Fatalf("hits = %d, want 3", e.Hits())
	}
}

func TestEvalCacheDisable(t *testing.T) {
	d := cacheTestDAG(t, 5, 2)
	e := NewEvalCache(scoreByFirstParam, nil)
	e.Disable = true
	tx := d.MustGet(1)
	e.Accuracy(tx)
	e.Accuracy(tx)
	e.AccuracyManyInto(nil, []*dag.Transaction{tx, tx})
	if e.Hits() != 0 || e.Misses() != 4 {
		t.Fatalf("disabled cache: hits=%d misses=%d, want 0/4", e.Hits(), e.Misses())
	}
}

// TestEvalCacheConcurrent hammers one cache from many goroutines; values
// must stay consistent and the race detector must stay quiet. The tangle is
// large enough that most batches miss, so goroutines meet in the scoring
// path and its scratch, not only in lookups.
func TestEvalCacheConcurrent(t *testing.T) {
	const n = 4096
	d := cacheTestDAG(t, n, 3)
	e := NewEvalCache(scoreByFirstParam, func(ps [][]float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = scoreByFirstParam(p)
		}
		return out
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < 200; i++ {
				k := 1 + rng.Intn(4)
				txs := make([]*dag.Transaction, k)
				for j := range txs {
					txs[j] = d.MustGet(dag.ID(rng.Intn(n)))
				}
				accs := e.AccuracyManyInto(nil, txs)
				for j, tx := range txs {
					if want := scoreByFirstParam(tx.Params); accs[j] != want {
						t.Errorf("tx %d: got %v, want %v", tx.ID, accs[j], want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if e.Hits()+e.Misses() == 0 {
		t.Fatal("counters not advanced")
	}
}

// TestAccuracyWalkSameTipsWithAnyEvaluator: the walk must select identical
// tips with identical stats whether the evaluator is a shared EvalCache, a
// disabled cache, or a bare EvaluatorFunc (the uncached reference) — caching
// and batching are invisible to the protocol.
func TestAccuracyWalkSameTipsWithAnyEvaluator(t *testing.T) {
	d := cacheTestDAG(t, 120, 4)
	sel := AccuracyWalk{Alpha: 5}
	run := func(eval Evaluator) (dag.ID, WalkStats) {
		rng := xrand.New(77)
		var total WalkStats
		var last dag.ID
		for i := 0; i < 10; i++ {
			tip, st := sel.SelectTip(d, eval, rng)
			total.Add(st)
			last = tip.ID
		}
		return last, total
	}

	cache := NewEvalCache(scoreByFirstParam, func(ps [][]float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = scoreByFirstParam(p)
		}
		return out
	})
	disabled := NewEvalCache(scoreByFirstParam, nil)
	disabled.Disable = true

	wantTip, wantStats := run(EvaluatorFunc(func(tx *dag.Transaction) float64 { return scoreByFirstParam(tx.Params) }))
	for name, eval := range map[string]Evaluator{"cache": cache, "disabled-cache": disabled} {
		tip, stats := run(eval)
		if tip != wantTip || stats != wantStats {
			t.Fatalf("%s: walk diverged: tip %d stats %+v, want tip %d stats %+v", name, tip, stats, wantTip, wantStats)
		}
	}
	if cache.Hits() == 0 {
		t.Fatal("shared cache saw no hits across 10 walks")
	}
}
