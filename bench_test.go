// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus ablation benches for the design choices called out
// in DESIGN.md §5.
//
// Each benchmark regenerates its experiment at Quick scale and prints the
// resulting rows/series once, so
//
//	go test -bench=. -benchmem ./... | tee bench_output.txt
//
// both measures the harness and records the reproduced numbers. Paper-scale
// runs of the same experiments: cmd/experiments -full.
//
// The harness runs sweep cells and the round engine on a worker pool sized
// by SPECDAG_WORKERS (default: NumCPU). Results are identical for any
// worker count, so
//
//	SPECDAG_WORKERS=1 go test -bench=. .   # sequential baseline
//	go test -bench=. .                     # parallel engine
//
// is a pure wall-clock comparison; BENCH_parallel.json records one such
// snapshot.
package specdag_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/specdag/specdag/internal/sim"
)

// metricName sanitizes labels for b.ReportMetric, whose units must not
// contain whitespace.
func metricName(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "-"), " ", "-")
}

const benchSeed int64 = 42

// benchPreset is the scale for all experiment benchmarks.
const benchPreset = sim.Quick

// benchEnv is the worker budget (SPECDAG_WORKERS) and grid checkpoint
// directory (SPECDAG_GRID_DIR) the environment asks for. A malformed value
// fails the benchmark: a typo'd sequential baseline must not run parallel.
func benchEnv(b *testing.B) sim.Env {
	b.Helper()
	env, err := sim.EnvFromOS()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// printOnce guards experiment output so repeated benchmark iterations print
// a series only once.
func printOnce(once *sync.Once, render func() string) {
	once.Do(func() { fmt.Println(render()) })
}

var table2Once sync.Once

// BenchmarkTable2ApprovalPureness regenerates Table 2: approval pureness on
// FMNIST-clustered, Poets and CIFAR-100 after training with α=10.
func BenchmarkTable2ApprovalPureness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Table2(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&table2Once, func() string { return sim.RenderTable2(rows) })
			for _, r := range rows {
				b.ReportMetric(r.Pureness, r.Dataset+"-pureness")
			}
		}
	}
}

var fig5Once sync.Once

// BenchmarkFigure5AlphaMetrics regenerates Fig. 5: modularity, partition
// count and misclassification of G_clients for α ∈ {1, 10, 100}.
func BenchmarkFigure5AlphaMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure5(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig5Once, func() string { return sim.RenderFig5(res) })
			for _, r := range res {
				b.ReportMetric(r.Series.Last("modularity"), fmt.Sprintf("modularity-alpha%g", r.Alpha))
			}
		}
	}
}

var fig6Once sync.Once

// BenchmarkFigure6AccuracyByAlpha regenerates Fig. 6: accuracy per round on
// FMNIST-clustered for α ∈ {0.1, 1, 10, 100}, standard normalization.
func BenchmarkFigure6AccuracyByAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := sim.Figure6(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig6Once, func() string {
				return sim.RenderCurves("Figure 6: accuracy by alpha (standard normalization)", curves)
			})
			for _, c := range curves {
				b.ReportMetric(c.Series.Last("acc"), c.Label+"-final-acc")
			}
		}
	}
}

var fig7Once sync.Once

// BenchmarkFigure7DynamicNormalization regenerates Fig. 7: the accuracy
// sweep with Eq. 3 normalization plus the α=1 pureness comparison.
func BenchmarkFigure7DynamicNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure7(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig7Once, func() string { return sim.RenderFig7(res) })
			b.ReportMetric(res.PurenessAlpha1["standard"], "pureness-standard")
			b.ReportMetric(res.PurenessAlpha1["dynamic"], "pureness-dynamic")
		}
	}
}

var fig8Once sync.Once

// BenchmarkFigure8RelaxedClusters regenerates Fig. 8: the α sweep on the
// relaxed dataset (15–20 % foreign-cluster data).
func BenchmarkFigure8RelaxedClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := sim.Figure8(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig8Once, func() string {
				return sim.RenderCurves("Figure 8: accuracy by alpha (relaxed clusters)", curves)
			})
			for _, c := range curves {
				b.ReportMetric(c.Series.Last("acc"), c.Label+"-final-acc")
			}
		}
	}
}

var fig9Once sync.Once

// BenchmarkFigure9FedAvgComparison regenerates Fig. 9: per-client accuracy
// distributions, FedAvg vs Specializing DAG, on all three datasets.
func BenchmarkFigure9FedAvgComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure9(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig9Once, func() string { return sim.RenderFig9(res) })
			for _, r := range res {
				lastF := r.FedAvg[len(r.FedAvg)-1].Stats
				lastD := r.DAG[len(r.DAG)-1].Stats
				b.ReportMetric(lastF.Median, r.Dataset+"-fedavg-median")
				b.ReportMetric(lastD.Median, r.Dataset+"-dag-median")
			}
		}
	}
}

var fig1011Once sync.Once

func runFig1011(b *testing.B, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		curves, err := sim.Figure10And11(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig1011Once, func() string { return sim.RenderFig1011(curves) })
			for _, c := range curves {
				b.ReportMetric(c.Series.Last(metric), c.Algorithm+"-final-"+metric)
			}
		}
	}
}

// BenchmarkFigure10FedProxAccuracy regenerates Fig. 10: mean accuracy per
// round for FedAvg, FedProx and DAG on Synthetic(0.5, 0.5).
func BenchmarkFigure10FedProxAccuracy(b *testing.B) { runFig1011(b, "acc") }

// BenchmarkFigure11FedProxLoss regenerates Fig. 11: mean loss per round for
// the same three algorithms (shares runs with Fig. 10).
func BenchmarkFigure11FedProxLoss(b *testing.B) { runFig1011(b, "loss") }

var fig1213Once sync.Once

func runFig1213(b *testing.B, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		curves, err := sim.Figure12And13(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig1213Once, func() string { return sim.RenderPoison(curves) })
			for _, c := range curves {
				b.ReportMetric(c.Series.Last(metric), metricName(c.Label, metric))
			}
		}
	}
}

// BenchmarkFigure12PoisoningFlipped regenerates Fig. 12: flipped 3↔8
// predictions under the label-flip attack for p ∈ {0, 0.2, 0.3} and the
// random-selector baseline.
func BenchmarkFigure12PoisoningFlipped(b *testing.B) { runFig1213(b, "flippedPct") }

// BenchmarkFigure13PoisonedApprovals regenerates Fig. 13: poisoned
// transactions approved by consensus references (shares runs with Fig. 12).
func BenchmarkFigure13PoisonedApprovals(b *testing.B) { runFig1213(b, "poisonedApprovals") }

var fig14Once sync.Once

// BenchmarkFigure14PoisonClusterHistogram regenerates Fig. 14: the
// distribution of poisoned clients over Louvain-inferred communities.
func BenchmarkFigure14PoisonClusterHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure14(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig14Once, func() string { return sim.RenderFig14(res) })
			b.ReportMetric(float64(res.Communities), "communities")
			b.ReportMetric(res.Containment, "containment")
		}
	}
}

var fig15Once sync.Once

// BenchmarkFigure15WalkScalability regenerates Fig. 15: random-walk cost
// (wall clock and model evaluations) for growing numbers of concurrently
// active clients.
func BenchmarkFigure15WalkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := sim.Figure15(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&fig15Once, func() string { return sim.RenderFig15(curves) })
			for _, c := range curves {
				evals := c.Series.Col("evalsPerClient")
				b.ReportMetric(evals[len(evals)-1], fmt.Sprintf("evals-active%d", c.ActiveClients))
			}
		}
	}
}

// ---- Ablation benches (DESIGN.md §5) ----

func runAblation(b *testing.B, once *sync.Once, title string,
	run func(context.Context, sim.Env, sim.Preset, int64) ([]sim.AblationRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(once, func() string { return sim.RenderAblation(title, rows) })
			for _, r := range rows {
				b.ReportMetric(r.FinalAcc, metricName(r.Variant, "acc"))
			}
		}
	}
}

var (
	ablNormOnce     sync.Once
	ablGateOnce     sync.Once
	ablDepthOnce    sync.Once
	ablRefOnce      sync.Once
	ablSelectorOnce sync.Once
)

// BenchmarkAblationNormalization compares Eq. 1 vs Eq. 3 at α=1.
func BenchmarkAblationNormalization(b *testing.B) {
	runAblation(b, &ablNormOnce, "normalization (alpha=1)", sim.AblationNormalization)
}

// BenchmarkAblationPublishGate compares publish-if-better vs always-publish.
func BenchmarkAblationPublishGate(b *testing.B) {
	runAblation(b, &ablGateOnce, "publish gate", sim.AblationPublishGate)
}

// BenchmarkAblationWalkDepth compares genesis-start vs depth-15–25 walks.
func BenchmarkAblationWalkDepth(b *testing.B) {
	runAblation(b, &ablDepthOnce, "walk entry depth", sim.AblationWalkDepth)
}

// BenchmarkAblationReferenceWalks compares 1 vs 3 consensus-reference walks.
func BenchmarkAblationReferenceWalks(b *testing.B) {
	runAblation(b, &ablRefOnce, "reference walks", sim.AblationReferenceWalks)
}

// BenchmarkAblationSelectors compares accuracy walk vs cumulative-weight
// walk vs URTS.
func BenchmarkAblationSelectors(b *testing.B) {
	runAblation(b, &ablSelectorOnce, "selector family", sim.AblationSelectors)
}

var ablShareOnce sync.Once

// BenchmarkAblationPartialSharing exercises the paper's future-work
// extension: sharing only the first layer while keeping personal heads.
func BenchmarkAblationPartialSharing(b *testing.B) {
	runAblation(b, &ablShareOnce, "partial layer sharing", sim.AblationPartialSharing)
}

var visibilityOnce sync.Once

// BenchmarkExtensionVisibility sweeps the transaction reveal delay,
// relaxing the ideal-broadcast assumption of §5.3.5.
func BenchmarkExtensionVisibility(b *testing.B) {
	runAblation(b, &visibilityOnce, "reveal delay (non-ideal broadcast)", sim.VisibilitySweep)
}

// BenchmarkSchedulerGridThroughput measures the sweep scheduler itself: 32
// tiny DAG cells with mixed priorities submitted as scheduler jobs on the
// shared pool, small enough that dispatch, requeue and settle overhead —
// not training time — dominates. The reported accuracies are gated
// byte-for-byte across worker counts (cmd/benchgate): scheduling decides
// only when a cell's units run, never its results.
func BenchmarkSchedulerGridThroughput(b *testing.B) {
	const cells = 32
	for i := 0; i < b.N; i++ {
		accs, err := sim.ThroughputGrid(context.Background(), benchEnv(b), benchPreset, benchSeed, cells)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var mean float64
			for _, a := range accs {
				mean += a
			}
			mean /= float64(len(accs))
			b.ReportMetric(mean, "sched-grid-mean-acc")
			b.ReportMetric(accs[0], "sched-grid-first-acc")
			b.ReportMetric(accs[len(accs)-1], "sched-grid-last-acc")
		}
	}
}

var faultsOnce sync.Once

// BenchmarkFaultScenarios runs the canned fault-injection scenarios
// (split-and-heal partition, 3× stragglers, 25% churn over a lossy jittered
// network) on the async engine. The reported accuracies are gated
// byte-for-byte across worker counts (cmd/benchgate): per-event fault draws
// are keyed on stable identifiers, so the schedule — and everything trained
// under it — is a pure function of the configuration and seed.
func BenchmarkFaultScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.FaultSweep(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&faultsOnce, func() string { return sim.RenderFaults(rows) })
			for _, r := range rows {
				b.ReportMetric(r.FirstAcc, metricName("fault", r.Scenario, "first-acc"))
				b.ReportMetric(r.LastAcc, metricName("fault", r.Scenario, "last-acc"))
				b.ReportMetric(r.MeanAcc, metricName("fault", r.Scenario, "mean-acc"))
			}
		}
	}
}

var gossipOnce sync.Once

// BenchmarkGossipComparison compares the DAG against the gossip-learning
// baseline (related work §3.2) and FedAvg on the clustered dataset.
func BenchmarkGossipComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := sim.GossipComparison(context.Background(), benchEnv(b), benchPreset, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(&gossipOnce, func() string { return sim.RenderFig1011(curves) })
			for _, c := range curves {
				b.ReportMetric(c.Series.Last("acc"), c.Algorithm+"-final-acc")
			}
		}
	}
}
