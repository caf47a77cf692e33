package tipselect

// Tests for the compaction-facing surface of EvalCache: Advance rebasing the
// dense index to the live floor and frozen IDs becoming permanent misses.

import (
	"testing"

	"github.com/specdag/specdag/internal/dag"
)

func TestEvalCacheAdvanceRebasesAndDropsFrozen(t *testing.T) {
	d := cacheTestDAG(t, 20, 3)
	e := NewEvalCache(scoreByFirstParam, nil)
	for i := 1; i < 20; i++ {
		e.Accuracy(d.MustGet(dag.ID(i)))
	}
	if e.Misses() != 19 {
		t.Fatalf("cold pass: %d misses, want 19", e.Misses())
	}

	e.Advance(10)
	// Live entries survive the rebase: re-reading them is all hits.
	h0 := e.Hits()
	for i := 10; i < 20; i++ {
		e.Accuracy(d.MustGet(dag.ID(i)))
	}
	if got := e.Hits() - h0; got != 10 {
		t.Fatalf("live entries after Advance: %d hits, want 10", got)
	}
	// Frozen IDs are permanent misses — scored afresh and never stored.
	m0 := e.Misses()
	e.Accuracy(d.MustGet(5))
	e.Accuracy(d.MustGet(5))
	if got := e.Misses() - m0; got != 2 {
		t.Fatalf("frozen ID re-scores: %d misses, want 2", got)
	}

	// Advance never goes backwards.
	e.Advance(4)
	h1 := e.Hits()
	e.Accuracy(d.MustGet(15))
	if e.Hits() != h1+1 {
		t.Fatal("backwards Advance disturbed live entries")
	}

	// Advancing past everything empties the cache.
	e.Advance(100)
	m1 := e.Misses()
	e.Accuracy(d.MustGet(15))
	if e.Misses() != m1+1 {
		t.Fatal("Advance past the end should drop every entry")
	}
}

func TestEvalCacheAdvanceRebasesStepWeights(t *testing.T) {
	e := NewEvalCache(scoreByFirstParam, nil)
	computes := 0
	compute := func(dst []float64) []float64 { computes++; return append(dst, 0.5, 0.5) }

	e.StepWeights(8, 2, 10, NormStandard, compute)
	e.StepWeights(20, 2, 10, NormStandard, compute)
	if computes != 2 {
		t.Fatalf("cold memo: %d computes, want 2", computes)
	}
	e.Advance(10)
	// The surviving entry still hits; the frozen one is gone and — being
	// below the floor — is recomputed on every call without being stored.
	e.StepWeights(20, 2, 10, NormStandard, compute)
	if computes != 2 {
		t.Fatalf("live memo entry lost by Advance: %d computes", computes)
	}
	e.StepWeights(8, 2, 10, NormStandard, compute)
	e.StepWeights(8, 2, 10, NormStandard, compute)
	if computes != 4 {
		t.Fatalf("frozen memo entries must recompute: %d computes, want 4", computes)
	}
}
