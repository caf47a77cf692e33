package tipselect

import (
	"math"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/xrand"
)

// countingCache returns an EvalCache whose scorers read accuracies from accs
// (indexed by the single parameter, the transaction's ID) and count every
// score per ID.
func countingCache(accs []float64, scored map[dag.ID]int) *EvalCache {
	score := func(p []float64) float64 {
		scored[dag.ID(p[0])]++
		return accs[int(p[0])]
	}
	return NewEvalCache(score, func(ps [][]float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = score(p)
		}
		return out
	})
}

// walkTrace runs walks accuracy walks over d with one evaluator and rng and
// returns each walk's tip and stats, then the RNG's next draw.
func walkTrace(sel AccuracyWalk, d *dag.DAG, eval Evaluator, seed int64, walks int) ([]dag.ID, []WalkStats, float64) {
	rng := xrand.New(seed)
	tips := make([]dag.ID, walks)
	stats := make([]WalkStats, walks)
	for i := range tips {
		tip, st := sel.SelectTip(d, eval, rng)
		tips[i], stats[i] = tip.ID, st
	}
	return tips, stats, rng.Float64()
}

// assertSameWalks checks a cached walk against the bare EvaluatorFunc walk
// over the same accuracies: same tips, same stats, same next draw.
func assertSameWalks(t *testing.T, sel AccuracyWalk, d *dag.DAG, accs []float64, cache *EvalCache, seed int64, walks int) {
	t.Helper()
	bare := EvaluatorFunc(func(tx *dag.Transaction) float64 { return accs[int(tx.Params[0])] })
	wantTips, wantStats, wantNext := walkTrace(sel, d, bare, seed, walks)
	tips, stats, next := walkTrace(sel, d, cache, seed, walks)
	for i := range tips {
		if tips[i] != wantTips[i] || stats[i] != wantStats[i] {
			t.Fatalf("%s walk %d: tip %d stats %+v, want tip %d stats %+v", sel.Name(), i, tips[i], stats[i], wantTips[i], wantStats[i])
		}
	}
	if math.Float64bits(next) != math.Float64bits(wantNext) {
		t.Fatalf("%s: next draw %v, want %v: the walks consumed the RNG differently", sel.Name(), next, wantNext)
	}
}

// TestLoneChildIsNotScored: on a chain that forks, then continues as a chain
// on one branch, a cached walk scores only the fork's children — a lone
// child's weight is exp(0·α) whatever it scores — and still walks exactly as
// the bare evaluator does, for every α including NaN and ±Inf. A disabled
// cache keeps scoring every child (Fig. 15's cost profile).
func TestLoneChildIsNotScored(t *testing.T) {
	// 0 → 1 → 2 → 3, 3 → {4, 5}, 4 → 6 → 7; 5 is a tip.
	d := dag.New([]float64{0})
	for _, e := range [][2]dag.ID{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 3}, {6, 4}, {7, 6}} {
		if tx, err := d.Add(int(e[0]), int(e[0]), []dag.ID{e[1], e[1]}, []float64{float64(e[0])}, dag.Meta{}); err != nil || tx.ID != e[0] {
			t.Fatalf("add %d: %v", e[0], err)
		}
	}
	accs := []float64{0.1, 0.2, 0.3, 0.4, 0.7, 0.6, 0.9, 0.8}
	lone := []dag.ID{1, 2, 3, 6, 7}
	for _, alpha := range []float64{10, 1, 0, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, norm := range []Normalization{NormStandard, NormDynamic} {
			sel := AccuracyWalk{Alpha: alpha, Norm: norm}
			scored := map[dag.ID]int{}
			cache := countingCache(accs, scored)
			assertSameWalks(t, sel, d, accs, cache, 5, 12)
			for _, id := range lone {
				if scored[id] != 0 {
					t.Errorf("%s: lone child %d scored %d times", sel.Name(), id, scored[id])
				}
			}
			if scored[4] != 1 || scored[5] != 1 {
				t.Errorf("%s: fork children scored %d and %d times, want once each", sel.Name(), scored[4], scored[5])
			}

			scored = map[dag.ID]int{}
			disabled := countingCache(accs, scored)
			disabled.Disable = true
			assertSameWalks(t, sel, d, accs, disabled, 5, 12)
			for _, id := range []dag.ID{1, 2, 3, 4, 5} {
				if scored[id] != 12 {
					t.Errorf("%s disabled cache: child %d scored %d times, want once per walk (12)", sel.Name(), id, scored[id])
				}
			}
		}
	}
}

// FuzzWalkMatchesEvaluator: over a random tangle with random accuracies, walk
// parameters and entry band, a cached walk — lone children unscored, weights
// memoized, misses scored in batches — picks the tips, reports the stats and
// leaves the RNG exactly as the bare EvaluatorFunc walk does.
func FuzzWalkMatchesEvaluator(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(1))
	f.Add([]byte{7, 1, 3, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 200, 100, 50, 255}, int64(2))
	f.Add([]byte{4, 0, 2, 0, 0, 0, 1, 1, 2, 2, 3, 0, 4}, int64(3))
	f.Add([]byte{5, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, int64(4))
	alphas := []float64{10, 1, 0, -3, 100, math.NaN(), math.Inf(1), math.Inf(-1)}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 3 {
			return
		}
		sel := AccuracyWalk{Alpha: alphas[int(data[0])%len(alphas)], Norm: Normalization(data[1] % 2)}
		if band := int(data[2] % 4); band > 0 {
			sel.DepthMin, sel.DepthMax = band-1, band+1
		}
		// Each transaction takes two parents and an accuracy from the bytes
		// that follow; accuracies repeat so ties occur.
		data = data[3:]
		d := dag.New([]float64{0})
		accs := []float64{0.5}
		for i := 1; len(data) >= 3 && i < 64; i++ {
			p1, p2 := dag.ID(int(data[0])%i), dag.ID(int(data[1])%i)
			if _, err := d.Add(i, i, []dag.ID{p1, p2}, []float64{float64(i)}, dag.Meta{}); err != nil {
				t.Fatal(err)
			}
			accs = append(accs, float64(data[2]%16)/15)
			data = data[3:]
		}
		assertSameWalks(t, sel, d, accs, countingCache(accs, map[dag.ID]int{}), seed, 6)
	})
}
