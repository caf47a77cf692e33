package tipselect

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/xrand"
)

// accByFirstParam evaluates a transaction by its first parameter value,
// giving tests direct control over "accuracies".
var accByFirstParam = EvaluatorFunc(func(tx *dag.Transaction) float64 {
	if len(tx.Params) == 0 {
		return 0
	}
	return tx.Params[0]
})

func TestWeightsStandard(t *testing.T) {
	accs := []float64{0.9, 0.5}
	w := Weights(accs, 10, NormStandard)
	if w[0] != 1 {
		t.Fatalf("best child must have weight 1, got %v", w[0])
	}
	want := math.Exp((0.5 - 0.9) * 10)
	if math.Abs(w[1]-want) > 1e-12 {
		t.Fatalf("w[1] = %v, want %v", w[1], want)
	}
}

func TestWeightsDynamic(t *testing.T) {
	// Dynamic normalization divides by the spread, so the weights depend
	// only on relative position within [min, max].
	a := Weights([]float64{0.9, 0.5}, 5, NormDynamic)
	b := Weights([]float64{0.52, 0.48}, 5, NormDynamic) // same relative layout
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("dynamic weights should be scale-invariant: %v vs %v", a, b)
		}
	}
	if a[0] != 1 || math.Abs(a[1]-math.Exp(-5)) > 1e-12 {
		t.Fatalf("dynamic weights wrong: %v", a)
	}
}

func TestWeightsDegenerateSpread(t *testing.T) {
	for _, norm := range []Normalization{NormStandard, NormDynamic} {
		w := Weights([]float64{0.5, 0.5, 0.5}, 100, norm)
		for _, v := range w {
			if v != 1 {
				t.Fatalf("equal accuracies must give uniform weight 1, got %v (%v)", w, norm)
			}
		}
	}
}

func TestWeightsAlphaZeroUniform(t *testing.T) {
	w := Weights([]float64{0.1, 0.9, 0.5}, 0, NormStandard)
	for _, v := range w {
		if v != 1 {
			t.Fatalf("alpha=0 must be uniform, got %v", w)
		}
	}
}

func TestWeightsPropertiesQuick(t *testing.T) {
	f := func(raw []float64, alphaRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		accs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			accs[i] = math.Mod(math.Abs(v), 1)
		}
		alpha := math.Mod(math.Abs(alphaRaw), 100)
		for _, norm := range []Normalization{NormStandard, NormDynamic} {
			w := Weights(accs, alpha, norm)
			maxW := 0.0
			for _, v := range w {
				if v <= 0 || v > 1+1e-12 || math.IsNaN(v) {
					return false
				}
				if v > maxW {
					maxW = v
				}
			}
			if math.Abs(maxW-1) > 1e-12 {
				return false // the best child always has weight exactly 1
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightsEmpty(t *testing.T) {
	if w := Weights(nil, 10, NormStandard); w != nil {
		t.Fatalf("Weights(nil) = %v, want nil", w)
	}
}

// buildForkDAG builds a DAG with two long branches behind genesis:
// a "good" branch whose models score high for the evaluator and a "bad"
// branch scoring low. Returns the two branch tip IDs.
func buildForkDAG(t *testing.T, depth int) (*dag.DAG, dag.ID, dag.ID) {
	t.Helper()
	d := dag.New([]float64{0.5})
	good, bad := dag.ID(0), dag.ID(0)
	for i := 0; i < depth; i++ {
		g, err := d.Add(1, i, []dag.ID{good, good}, []float64{0.9}, dag.Meta{})
		if err != nil {
			t.Fatal(err)
		}
		good = g.ID
		b, err := d.Add(2, i, []dag.ID{bad, bad}, []float64{0.1}, dag.Meta{})
		if err != nil {
			t.Fatal(err)
		}
		bad = b.ID
	}
	return d, good, bad
}

func TestAccuracyWalkReachesTip(t *testing.T) {
	d, _, _ := buildForkDAG(t, 10)
	rng := xrand.New(1)
	w := AccuracyWalk{Alpha: 10}
	for i := 0; i < 20; i++ {
		tip, _ := w.SelectTip(d, accByFirstParam, rng)
		if !d.IsTip(tip.ID) {
			t.Fatalf("walk ended at non-tip %d", tip.ID)
		}
	}
}

func TestAccuracyWalkHighAlphaFollowsAccuracy(t *testing.T) {
	d, good, _ := buildForkDAG(t, 8)
	rng := xrand.New(2)
	w := AccuracyWalk{Alpha: 100}
	hits := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		tip, _ := w.SelectTip(d, accByFirstParam, rng)
		if tip.ID == good {
			hits++
		}
	}
	if hits < trials*9/10 {
		t.Fatalf("alpha=100 should almost always reach the good tip, got %d/%d", hits, trials)
	}
}

func TestAccuracyWalkLowAlphaIsRandomish(t *testing.T) {
	d, good, bad := buildForkDAG(t, 8)
	rng := xrand.New(3)
	w := AccuracyWalk{Alpha: 0}
	goodHits, badHits := 0, 0
	const trials = 400
	for i := 0; i < trials; i++ {
		tip, _ := w.SelectTip(d, accByFirstParam, rng)
		switch tip.ID {
		case good:
			goodHits++
		case bad:
			badHits++
		}
	}
	// With alpha=0 the first step from genesis is a fair coin between
	// branches; expect both branches hit a substantial fraction.
	if goodHits < trials/4 || badHits < trials/4 {
		t.Fatalf("alpha=0 walk is too deterministic: good=%d bad=%d", goodHits, badHits)
	}
}

func TestAccuracyWalkStats(t *testing.T) {
	d, _, _ := buildForkDAG(t, 5)
	rng := xrand.New(4)
	w := AccuracyWalk{Alpha: 10}
	_, stats := w.SelectTip(d, accByFirstParam, rng)
	// From genesis: first step sees 2 children, then 1 child per level.
	if stats.Steps != 5 {
		t.Fatalf("steps = %d, want 5", stats.Steps)
	}
	if stats.Evaluations != 6 {
		t.Fatalf("evaluations = %d, want 6", stats.Evaluations)
	}
}

func TestSelectTips(t *testing.T) {
	d, _, _ := buildForkDAG(t, 5)
	rng := xrand.New(5)
	tips, stats := SelectTips(AccuracyWalk{Alpha: 10}, d, accByFirstParam, rng, 2)
	if len(tips) != 2 {
		t.Fatalf("want 2 tips, got %d", len(tips))
	}
	for _, tip := range tips {
		if !d.IsTip(tip.ID) {
			t.Fatal("SelectTips returned a non-tip")
		}
	}
	if stats.Steps == 0 || stats.Evaluations == 0 {
		t.Fatal("stats not accumulated")
	}
}

func TestWeightedWalkPrefersHeavySubtree(t *testing.T) {
	// Genesis has two children; the "heavy" child gains a long approving
	// chain, the "light" child stays a tip.
	d := dag.New(nil)
	heavy, _ := d.Add(1, 0, []dag.ID{0, 0}, nil, dag.Meta{})
	light, _ := d.Add(2, 0, []dag.ID{0, 0}, nil, dag.Meta{})
	cur := heavy.ID
	for i := 0; i < 10; i++ {
		tx, _ := d.Add(1, i+1, []dag.ID{cur, cur}, nil, dag.Meta{})
		cur = tx.ID
	}
	rng := xrand.New(6)
	w := WeightedWalk{Alpha: 2}
	lightHits := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		tip, _ := w.SelectTip(d, nil, rng)
		if tip.ID == light.ID {
			lightHits++
		}
	}
	if lightHits > trials/5 {
		t.Fatalf("weighted walk ignored subtree weight: light tip hit %d/%d", lightHits, trials)
	}
}

func TestURTSUniformOverTips(t *testing.T) {
	d := dag.New(nil)
	var tips []dag.ID
	for i := 0; i < 4; i++ {
		tx, _ := d.Add(i, 0, []dag.ID{0, 0}, nil, dag.Meta{})
		tips = append(tips, tx.ID)
	}
	rng := xrand.New(7)
	counts := map[dag.ID]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		tip, stats := URTS{}.SelectTip(d, nil, rng)
		if stats.Evaluations != 0 {
			t.Fatal("URTS must not evaluate models")
		}
		counts[tip.ID]++
	}
	for _, id := range tips {
		frac := float64(counts[id]) / trials
		if math.Abs(frac-0.25) > 0.05 {
			t.Fatalf("URTS not uniform: tip %d frac %.3f", id, frac)
		}
	}
}

func TestUniformWalkTerminates(t *testing.T) {
	rng := xrand.New(8)
	d := dag.New(nil)
	for i := 0; i < 50; i++ {
		tips := d.Tips()
		p1 := tips[rng.Intn(len(tips))]
		p2 := tips[rng.Intn(len(tips))]
		d.Add(i%5, i, []dag.ID{p1, p2}, nil, dag.Meta{})
	}
	for i := 0; i < 50; i++ {
		tip, _ := UniformWalk{}.SelectTip(d, nil, rng)
		if !d.IsTip(tip.ID) {
			t.Fatal("uniform walk ended off-tip")
		}
	}
}

func TestWalkDepthStart(t *testing.T) {
	// Deep chain; starting at depth 2-4 must skip most of the walk.
	d := dag.New(nil)
	cur := dag.ID(0)
	for i := 0; i < 30; i++ {
		tx, _ := d.Add(1, i, []dag.ID{cur, cur}, nil, dag.Meta{})
		cur = tx.ID
	}
	rng := xrand.New(9)
	w := AccuracyWalk{Alpha: 1, DepthMin: 2, DepthMax: 4}
	_, stats := w.SelectTip(d, accByFirstParam, rng)
	if stats.Steps < 2 || stats.Steps > 4 {
		t.Fatalf("depth-banded walk took %d steps, want within [2,4]", stats.Steps)
	}
}

func TestSelectorNames(t *testing.T) {
	tests := []struct {
		sel  Selector
		want string
	}{
		{AccuracyWalk{Alpha: 10}, "accuracy-walk(alpha=10,standard)"},
		{AccuracyWalk{Alpha: 0.5, Norm: NormDynamic}, "accuracy-walk(alpha=0.5,dynamic)"},
		{WeightedWalk{Alpha: 2}, "weighted-walk(alpha=2)"},
		{URTS{}, "urts"},
		{UniformWalk{}, "uniform-walk"},
	}
	for _, tt := range tests {
		if got := tt.sel.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestWalkOnGenesisOnlyDAG(t *testing.T) {
	d := dag.New([]float64{0.3})
	rng := xrand.New(10)
	for _, sel := range []Selector{AccuracyWalk{Alpha: 10}, WeightedWalk{Alpha: 1}, URTS{}, UniformWalk{}} {
		tip, stats := sel.SelectTip(d, accByFirstParam, rng)
		if !tip.IsGenesis() {
			t.Fatalf("%s: expected genesis on empty DAG", sel.Name())
		}
		if stats.Steps != 0 {
			t.Fatalf("%s: no steps expected on empty DAG", sel.Name())
		}
	}
}

// accuracyWalkBenchDAG grows BenchmarkAccuracyWalk's 500-transaction tangle
// from rng. Each transaction approves current tips, so it is a chain.
func accuracyWalkBenchDAG(rng *xrand.RNG) *dag.DAG {
	d := dag.New([]float64{0.5})
	for i := 0; i < 500; i++ {
		tips := d.Tips()
		p1 := tips[rng.Intn(len(tips))]
		p2 := tips[rng.Intn(len(tips))]
		d.Add(i%10, i, []dag.ID{p1, p2}, []float64{rng.Float64()}, dag.Meta{})
	}
	return d
}

func BenchmarkAccuracyWalk(b *testing.B) {
	rng := xrand.New(1)
	d := accuracyWalkBenchDAG(rng)
	w := AccuracyWalk{Alpha: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SelectTip(d, accByFirstParam, rng)
	}
}
