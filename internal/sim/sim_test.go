package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/par"
)

const testSeed = 42

func TestPresets(t *testing.T) {
	if Quick.Rounds() >= Full.Rounds() {
		t.Error("quick preset should be smaller than full")
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("preset names wrong")
	}
}

func TestSpecsAreWellFormed(t *testing.T) {
	specs := []Spec{
		FMNISTSpec(Quick, testSeed),
		RelaxedFMNISTSpec(Quick, testSeed),
		ByWriterFMNISTSpec(Quick, testSeed),
		PoetsSpec(Quick, testSeed),
		CIFARSpec(Quick, testSeed),
		FedProxSpec(Quick, testSeed),
	}
	for _, s := range specs {
		if err := s.Fed.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if err := s.Arch.Validate(); err != nil {
			t.Errorf("%s arch: %v", s.Name, err)
		}
		if s.Arch.In != s.Fed.InputDim || s.Arch.Out != s.Fed.NumClasses {
			t.Errorf("%s: arch/federation shape mismatch", s.Name)
		}
		if s.Local.LR <= 0 {
			t.Errorf("%s: missing learning rate", s.Name)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Training rounds", "SGD(0.05)", "SGD(0.8)", "SGD(0.01)", "| 100 | 100 | 100 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestTable2QuickShape(t *testing.T) {
	t.Parallel()
	rows, err := Table2(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	wantClusters := []int{3, 2, 20}
	for i, r := range rows {
		if r.Clusters != wantClusters[i] {
			t.Errorf("%s clusters = %d, want %d", r.Dataset, r.Clusters, wantClusters[i])
		}
		if r.Pureness < 0 || r.Pureness > 1 {
			t.Errorf("%s pureness out of range: %v", r.Dataset, r.Pureness)
		}
		// The core claim: specialization above the random baseline.
		if r.Pureness <= r.Base {
			t.Errorf("%s pureness %v not above base %v", r.Dataset, r.Pureness, r.Base)
		}
	}
	if !strings.Contains(RenderTable2(rows), "approval pureness") {
		t.Error("RenderTable2 broken")
	}
}

func TestFigure5Quick(t *testing.T) {
	t.Parallel()
	results, err := Figure5(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 alphas, got %d", len(results))
	}
	for _, r := range results {
		if len(r.Series.Rows) == 0 {
			t.Fatalf("alpha=%v: empty series", r.Alpha)
		}
		for _, mod := range r.Series.Col("modularity") {
			if mod < -0.5 || mod > 1 {
				t.Fatalf("modularity out of range: %v", mod)
			}
		}
		for _, np := range r.Series.Col("partitions") {
			if np < 1 {
				t.Fatalf("partition count %v < 1", np)
			}
		}
	}
	if !strings.Contains(RenderFig5(results), "Figure 5") {
		t.Error("RenderFig5 broken")
	}
}

func TestFigure6Quick(t *testing.T) {
	t.Parallel()
	curves, err := Figure6(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("want 4 curves, got %d", len(curves))
	}
	for _, c := range curves {
		accs := c.Series.Col("acc")
		if len(accs) != Quick.Rounds() {
			t.Fatalf("%s: %d rounds", c.Label, len(accs))
		}
		for _, a := range accs {
			if a < 0 || a > 1 {
				t.Fatalf("%s: accuracy %v out of range", c.Label, a)
			}
		}
	}
	out := RenderCurves("Figure 6", curves)
	if !strings.Contains(out, "alpha=10") {
		t.Error("RenderCurves missing labels")
	}
}

func TestFigure7Quick(t *testing.T) {
	t.Parallel()
	r, err := Figure7(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 4 {
		t.Fatalf("want 4 curves, got %d", len(r.Curves))
	}
	if _, ok := r.PurenessAlpha1["standard"]; !ok {
		t.Fatal("missing standard pureness")
	}
	if _, ok := r.PurenessAlpha1["dynamic"]; !ok {
		t.Fatal("missing dynamic pureness")
	}
	if !strings.Contains(RenderFig7(r), "alpha=1") {
		t.Error("RenderFig7 broken")
	}
}

func TestFigure8Quick(t *testing.T) {
	t.Parallel()
	curves, err := Figure8(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("want 4 curves, got %d", len(curves))
	}
}

func TestFigure9Quick(t *testing.T) {
	t.Parallel()
	results, err := Figure9(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(results))
	}
	for _, r := range results {
		if len(r.FedAvg) == 0 || len(r.DAG) == 0 {
			t.Fatalf("%s: empty groups", r.Dataset)
		}
		for _, g := range append(append([]Fig9Group{}, r.FedAvg...), r.DAG...) {
			if g.Stats.N == 0 {
				t.Fatalf("%s: empty box group", r.Dataset)
			}
		}
	}
	if !strings.Contains(RenderFig9(results), "FedAvg median") {
		t.Error("RenderFig9 broken")
	}
}

func TestFigure10And11Quick(t *testing.T) {
	t.Parallel()
	curves, err := Figure10And11(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("want FedAvg/FedProx/DAG, got %d curves", len(curves))
	}
	names := map[string]bool{}
	for _, c := range curves {
		names[c.Label] = true
		if len(c.Series.Rows) != Quick.Rounds() {
			t.Fatalf("%s: wrong round count", c.Label)
		}
	}
	for _, want := range []string{"FedAvg", "FedProx", "DAG"} {
		if !names[want] {
			t.Fatalf("missing curve %s", want)
		}
	}
	if !strings.Contains(RenderFig1011("Figures 10 & 11", curves), "FedProx acc") {
		t.Error("RenderFig1011 broken")
	}
}

func TestFigure12And13Quick(t *testing.T) {
	t.Parallel()
	curves, err := Figure12And13(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Series.Rows) == 0 {
			t.Fatalf("%s: empty series", c.Label)
		}
		for _, v := range c.Series.Col("flippedPct") {
			if v < 0 || v > 100 {
				t.Fatalf("%s: flipped%% out of range: %v", c.Label, v)
			}
		}
	}
	if !strings.Contains(RenderPoison(curves), "p=0.3") {
		t.Error("RenderPoison broken")
	}
}

func TestFigure14Quick(t *testing.T) {
	t.Parallel()
	r, err := Figure14(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Communities <= 0 {
		t.Fatal("no communities inferred")
	}
	totalPoisoned := 0
	for _, n := range r.Poisoned {
		totalPoisoned += n
	}
	if totalPoisoned == 0 {
		t.Fatal("no poisoned clients in histogram")
	}
	if r.Containment < 0 || r.Containment > 1 {
		t.Fatalf("containment out of range: %v", r.Containment)
	}
	if !strings.Contains(RenderFig14(r), "containment") {
		t.Error("RenderFig14 broken")
	}
}

func TestFigure15Quick(t *testing.T) {
	t.Parallel()
	curves, err := Figure15(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("want 3 levels in quick mode, got %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Series.Rows) != Quick.Rounds() {
			t.Fatalf("active=%d: wrong round count", c.ActiveClients)
		}
		walkMicros := 0.0
		for _, row := range c.Series.Rows {
			walkMicros += row[1]
		}
		if walkMicros <= 0 {
			t.Errorf("active=%d: no walk time measured", c.ActiveClients)
		}
	}
	if !strings.Contains(RenderFig15(curves), "active clients") {
		t.Error("RenderFig15 broken")
	}
}

func TestAblationsQuick(t *testing.T) {
	t.Parallel()
	type ablation struct {
		name string
		run  func(context.Context, Env, Preset, int64) ([]AblationRow, error)
		want int
	}
	ablations := []ablation{
		{"normalization", AblationNormalization, 2},
		{"publish-gate", AblationPublishGate, 2},
		{"walk-depth", AblationWalkDepth, 2},
		{"reference-walks", AblationReferenceWalks, 2},
		{"selectors", AblationSelectors, 3},
	}
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			rows, err := a.run(context.Background(), Env{}, Quick, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != a.want {
				t.Fatalf("want %d rows, got %d", a.want, len(rows))
			}
			for _, r := range rows {
				if r.FinalAcc < 0 || r.FinalAcc > 1 {
					t.Errorf("%s: acc out of range %v", r.Variant, r.FinalAcc)
				}
				if r.DAGSize < 1 {
					t.Errorf("%s: DAG empty", r.Variant)
				}
			}
			if !strings.Contains(RenderAblation(a.name, rows), a.name) {
				t.Error("RenderAblation broken")
			}
		})
	}
}

func TestAblationPublishGateGrowsDAG(t *testing.T) {
	t.Parallel()
	rows, err := AblationPublishGate(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Without the gate, every activation publishes, so the DAG must be at
	// least as large as with the gate.
	if rows[1].DAGSize < rows[0].DAGSize {
		t.Fatalf("gate-off DAG (%d) smaller than gate-on (%d)", rows[1].DAGSize, rows[0].DAGSize)
	}
}

// TestHarnessSharedPoolBoundsNestedFanOut is the oversubscription
// regression test: a sweep (cells fanning out on the shared pool) whose
// cells each run a round engine (fanning out over clients on the same pool)
// must never exceed the configured worker budget, asserted via the pool's
// accounting. Before the shared pool, cells and round engines each used the
// full worker count, multiplying to ~NumCPU² goroutines.
func TestHarnessSharedPoolBoundsNestedFanOut(t *testing.T) {
	t.Parallel()
	env := Env{Pool: par.NewBudget(2)}
	if _, err := AblationPublishGate(context.Background(), env, Quick, testSeed); err != nil {
		t.Fatal(err)
	}
	if peak := env.Pool.Peak(); peak > 2 {
		t.Fatalf("nested sweep+round fan-out peaked at %d goroutines on a 2-slot budget", peak)
	}
	if env.Pool.InUse() != 0 {
		t.Fatalf("pool reports %d in use after the sweep", env.Pool.InUse())
	}
}

// TestHarnessRunsAreCancelable: canceling the context aborts a sweep
// mid-flight with a context error instead of running to completion.
func TestHarnessRunsAreCancelable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the sweep must abort before finishing
	_, err := Table2(ctx, Env{}, Quick, testSeed)
	if err == nil {
		t.Fatal("canceled sweep completed successfully")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestSelectorByNameRejectsNonFiniteAlpha: a NaN or infinite α makes every
// walk weight NaN or 0, which WeightedChoice answers with a uniform pick, so
// the walks that weight by α refuse it by name; the others ignore α.
func TestSelectorByNameRejectsNonFiniteAlpha(t *testing.T) {
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, name := range []string{"accuracy", "weighted"} {
			_, err := SelectorByName(name, "standard", alpha, 0, 0)
			if err == nil || !strings.Contains(err.Error(), "alpha") || !strings.Contains(err.Error(), name) {
				t.Errorf("%s alpha %v: %v, want an error naming alpha and the walk", name, alpha, err)
			}
		}
		for _, name := range []string{"urts", "uniform"} {
			if _, err := SelectorByName(name, "standard", alpha, 0, 0); err != nil {
				t.Errorf("%s alpha %v: %v, want α ignored", name, alpha, err)
			}
		}
	}
	for _, alpha := range []float64{0, -3, 1e300} {
		if _, err := SelectorByName("accuracy", "dynamic", alpha, 0, 0); err != nil {
			t.Errorf("accuracy alpha %v: %v", alpha, err)
		}
	}
}
