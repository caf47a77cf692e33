package tipselect

import (
	"sync"
	"testing"

	"github.com/specdag/specdag/internal/dag"
)

// TestStepWeightsMemo: hits return the cached vector without recomputing, a
// changed child count invalidates.
func TestStepWeightsMemo(t *testing.T) {
	e := NewEvalCache(scoreByFirstParam, nil)
	computes := 0
	compute := func(n int) func([]float64) []float64 {
		return func(dst []float64) []float64 {
			computes++
			for i := 0; i < n; i++ {
				dst = append(dst, float64(i+1))
			}
			return dst
		}
	}

	w1 := e.StepWeights(5, 2, 10, NormStandard, compute(2))
	if computes != 1 || len(w1) != 2 {
		t.Fatalf("cold StepWeights: computes=%d, w=%v", computes, w1)
	}
	w2 := e.StepWeights(5, 2, 10, NormStandard, compute(2))
	if computes != 1 {
		t.Fatalf("memo hit recomputed: computes=%d", computes)
	}
	if &w1[0] != &w2[0] {
		t.Fatal("memo hit should return the cached vector")
	}

	// A new child arriving at tx 5 invalidates the entry.
	if got := e.StepWeights(5, 3, 10, NormStandard, compute(3)); computes != 2 || len(got) != 3 {
		t.Fatalf("child-count change should recompute: computes=%d", computes)
	}

	// Another transaction has its own slot (also exercises slice growth).
	e.StepWeights(1000, 1, 10, NormStandard, compute(1))
	if computes != 3 {
		t.Fatalf("distinct transaction should compute: computes=%d", computes)
	}
	if e.StepWeights(5, 3, 10, NormStandard, compute(3)); computes != 3 {
		t.Fatalf("growth must keep existing entries: computes=%d", computes)
	}
}

// TestStepWeightsKeyedByWalkParameters: a cache shared across walks with
// different alpha or normalization must never serve one walk's weights to
// the other.
func TestStepWeightsKeyedByWalkParameters(t *testing.T) {
	e := NewEvalCache(scoreByFirstParam, nil)
	computes := 0
	compute := func(dst []float64) []float64 {
		computes++
		return append(dst, float64(computes), 0)
	}
	a := e.StepWeights(5, 2, 1, NormStandard, compute)
	if b := e.StepWeights(5, 2, 100, NormStandard, compute); computes != 2 || b[0] == a[0] {
		t.Fatalf("alpha change must recompute: computes=%d", computes)
	}
	if c := e.StepWeights(5, 2, 100, NormDynamic, compute); computes != 3 || c[0] != 3 {
		t.Fatalf("normalization change must recompute: computes=%d", computes)
	}
	if d := e.StepWeights(5, 2, 100, NormDynamic, compute); computes != 3 || d[0] != 3 {
		t.Fatalf("same parameters must hit: computes=%d", computes)
	}
	// The memo holds one parameter pair at a time: going back recomputes,
	// and what the first pair handed out is left as it was.
	if again := e.StepWeights(5, 2, 1, NormStandard, compute); computes != 4 || again[0] != 4 || a[0] != 1 {
		t.Fatalf("returning to the first parameters: computes=%d, first vector %v", computes, a)
	}
}

// TestStepWeightsDisable: the no-caching cost profile recomputes every call.
func TestStepWeightsDisable(t *testing.T) {
	e := NewEvalCache(scoreByFirstParam, nil)
	e.Disable = true
	computes := 0
	for i := 0; i < 3; i++ {
		e.StepWeights(1, 2, 10, NormStandard, func(dst []float64) []float64 { computes++; return append(dst, 1, 1) })
	}
	if computes != 3 {
		t.Fatalf("Disable must bypass the memo: computes=%d", computes)
	}
}

// TestStepWeightsConcurrent hammers the memo from several goroutines under
// -race; all callers must observe a valid vector.
func TestStepWeightsConcurrent(t *testing.T) {
	e := NewEvalCache(scoreByFirstParam, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := dag.ID(i % 37)
				n := 1 + i%3
				w := e.StepWeights(id, n, 10, NormStandard, func(dst []float64) []float64 {
					for k := 0; k < n; k++ {
						dst = append(dst, float64(id))
					}
					return dst
				})
				if len(w) != n || w[0] != float64(id) || w[n-1] != float64(id) {
					t.Errorf("goroutine %d: bad weights %v for id %d", g, w, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAccuracyManyIntoAppends: the batch path appends to the caller's buffer
// and scores like Accuracy.
func TestAccuracyManyIntoAppends(t *testing.T) {
	d := cacheTestDAG(t, 8, 3)
	e := NewEvalCache(scoreByFirstParam, nil)
	txs := []*dag.Transaction{d.MustGet(1), d.MustGet(2), d.MustGet(3)}

	dst := append(make([]float64, 0, 8), -1) // pre-existing content survives
	dst = e.AccuracyManyInto(dst, txs)
	if len(dst) != 4 || dst[0] != -1 {
		t.Fatalf("AccuracyManyInto mangled dst: %v", dst)
	}
	for i, tx := range txs {
		if w := e.Accuracy(tx); dst[i+1] != w {
			t.Fatalf("AccuracyManyInto[%d] = %v, want %v", i, dst[i+1], w)
		}
	}
}

// TestWeightsIntoMatchesWeights: the appending variant produces identical
// values.
func TestWeightsIntoMatchesWeights(t *testing.T) {
	accs := []float64{0.1, 0.9, 0.4}
	for _, norm := range []Normalization{NormStandard, NormDynamic} {
		want := Weights(accs, 7, norm)
		got := WeightsInto(nil, accs, 7, norm)
		if len(got) != len(want) {
			t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("norm %v: WeightsInto[%d] = %v, want %v", norm, i, got[i], want[i])
			}
		}
	}
	if out := WeightsInto(nil, nil, 1, NormStandard); len(out) != 0 {
		t.Fatalf("empty accs should append nothing, got %v", out)
	}
}
