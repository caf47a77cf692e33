package sim

import (
	"context"
	"fmt"
	"os"
	"strings"

	"github.com/specdag/specdag/internal/mathx"
)

// Metric is one named number an experiment reports: the value the root
// BenchmarkExperiments hands to b.ReportMetric and the one
// testdata/experiments.golden pins as "<id>/<name>".
type Metric struct {
	Name  string
	Value float64
}

// Experiment is one row of the evaluation. The table returned by Experiments
// is the only place an ID is bound to its runs, its rendering and its
// metrics; cmd/experiments, the root benchmark and TestExperimentsGolden all
// range over it.
type Experiment struct {
	ID string
	// Alias is a second ID for the same runs: Figs. 10/11 and Figs. 12/13
	// are two views of one sweep each.
	Alias string
	// Extra keeps the entry out of "all".
	Extra bool
	// Run executes the experiment and returns its markdown rendering and
	// its metrics in reporting order. Everything in metrics is a pure
	// function of (p, seed) for any env; text may also carry wall-clock
	// measurements (Fig. 15's walk µs, the long-haul heap peak).
	Run func(ctx context.Context, env Env, p Preset, seed int64) (text string, metrics []Metric, err error)
}

// Experiments returns the evaluation in the order "all" runs it: the paper's
// tables and figures (§5), then the repo's ablations and extensions, then the
// entries outside "all".
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Run: func(context.Context, Env, Preset, int64) (string, []Metric, error) {
			return Table1(), nil, nil
		}},
		{ID: "table2", Run: bind(Table2, RenderTable2, func(rows []Table2Row) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms, Metric{r.Dataset + "-pureness", r.Pureness})
			}
			return ms
		})},
		{ID: "fig5", Run: bind(Figure5, RenderFig5, func(res []Fig5Result) (ms []Metric) {
			for _, r := range res {
				ms = append(ms, Metric{fmt.Sprintf("modularity-alpha%g", r.Alpha), r.Series.Last("modularity")})
			}
			return ms
		})},
		{ID: "fig6", Run: bind(Figure6, titled("Figure 6: accuracy by alpha (standard normalization)", RenderCurves), finalAccs)},
		{ID: "fig7", Run: bind(Figure7, RenderFig7, func(r *Fig7Result) []Metric {
			return []Metric{
				{"pureness-standard", r.PurenessAlpha1["standard"]},
				{"pureness-dynamic", r.PurenessAlpha1["dynamic"]},
			}
		})},
		{ID: "fig8", Run: bind(Figure8, titled("Figure 8: accuracy by alpha (relaxed clusters)", RenderCurves), finalAccs)},
		{ID: "fig9", Run: bind(Figure9, RenderFig9, func(res []Fig9Result) (ms []Metric) {
			for _, r := range res {
				ms = append(ms,
					Metric{r.Dataset + "-fedavg-median", r.FedAvg[len(r.FedAvg)-1].Stats.Median},
					Metric{r.Dataset + "-dag-median", r.DAG[len(r.DAG)-1].Stats.Median})
			}
			return ms
		})},
		{ID: "fig10", Alias: "fig11", Run: bind(Figure10And11,
			titled("Figures 10 & 11: FedAvg vs DAG vs FedProx on Synthetic(0.5,0.5)", RenderFig1011),
			func(curves []Curve) []Metric { return finals(curves, "acc", "loss") })},
		{ID: "fig12", Alias: "fig13", Run: bind(Figure12And13, RenderPoison, func(curves []Curve) (ms []Metric) {
			for _, col := range []string{"flippedPct", "poisonedApprovals"} {
				for _, c := range curves {
					ms = append(ms, Metric{metricName(c.Label, col), c.Series.Last(col)})
				}
			}
			return ms
		})},
		{ID: "fig14", Run: bind(Figure14, RenderFig14, func(r *Fig14Result) []Metric {
			return []Metric{{"communities", float64(r.Communities)}, {"containment", r.Containment}}
		})},
		{ID: "fig15", Run: bind(Figure15, RenderFig15, func(curves []Fig15Curve) (ms []Metric) {
			for _, c := range curves {
				ms = append(ms, Metric{fmt.Sprintf("evals-active%d", c.ActiveClients), c.Series.Last("evalsPerClient")})
			}
			return ms
		})},
		{ID: "ablations", Run: runAblations},
		{ID: "gossip", Run: bind(GossipComparison,
			titled("Extension: gossip learning vs FedAvg vs DAG (FMNIST-clustered)", RenderFig1011), finalAccs)},
		{ID: "visibility", Run: bind(VisibilitySweep, titled("reveal delay (non-ideal broadcast)", RenderAblation), variantAccs)},
		{ID: "faults", Run: bind(FaultSweep, RenderFaults, func(rows []FaultRow) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms,
					Metric{metricName("fault", r.Scenario, "first-acc"), r.FirstAcc},
					Metric{metricName("fault", r.Scenario, "last-acc"), r.LastAcc},
					Metric{metricName("fault", r.Scenario, "mean-acc"), r.MeanAcc})
			}
			return ms
		})},
		// The bounded-memory endurance run (epoch compaction + parameter
		// spill): seconds at Quick, the ~10^6-event acceptance run at Full.
		{ID: "longhaul", Extra: true, Run: func(ctx context.Context, env Env, p Preset, seed int64) (string, []Metric, error) {
			dir, err := os.MkdirTemp("", "specdag-longhaul-*")
			if err != nil {
				return "", nil, err
			}
			defer os.RemoveAll(dir)
			rep, err := LongHaul(ctx, env, p, dir, seed)
			if err != nil {
				return "", nil, err
			}
			return RenderLongHaul(rep), nil, nil
		}},
		{ID: "sched-grid", Extra: true, Run: bind(ThroughputGrid, renderThroughput, func(accs []float64) []Metric {
			return []Metric{
				{"sched-grid-mean-acc", mathx.Mean(accs)},
				{"sched-grid-first-acc", accs[0]},
				{"sched-grid-last-acc", accs[len(accs)-1]},
			}
		})},
	}
}

// bind assembles an entry's Run from the three things it binds: the runs,
// their rendering and the metrics read off the result.
func bind[R any](run func(context.Context, Env, Preset, int64) (R, error), render func(R) string, metrics func(R) []Metric) func(context.Context, Env, Preset, int64) (string, []Metric, error) {
	return func(ctx context.Context, env Env, p Preset, seed int64) (string, []Metric, error) {
		res, err := run(ctx, env, p, seed)
		if err != nil {
			return "", nil, err
		}
		return render(res), metrics(res), nil
	}
}

// titled fixes the title of a renderer shared between entries.
func titled[R any](title string, render func(string, R) string) func(R) string {
	return func(res R) string { return render(title, res) }
}

// metricName joins label parts into a b.ReportMetric unit, which must not
// contain whitespace.
func metricName(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "-"), " ", "-")
}

func finalAccs(curves []Curve) []Metric { return finals(curves, "acc") }

// finals reports every curve's last-round value of each column, column by
// column.
func finals(curves []Curve, cols ...string) (ms []Metric) {
	for _, col := range cols {
		for _, c := range curves {
			ms = append(ms, Metric{c.Label + "-final-" + col, c.Series.Last(col)})
		}
	}
	return ms
}

func variantAccs(rows []AblationRow) (ms []Metric) {
	for _, r := range rows {
		ms = append(ms, Metric{metricName(r.Variant, "acc"), r.FinalAcc})
	}
	return ms
}

// runAblations runs the design-choice ablations back to back as one entry.
func runAblations(ctx context.Context, env Env, p Preset, seed int64) (string, []Metric, error) {
	var (
		b  strings.Builder
		ms []Metric
	)
	for _, a := range []struct {
		title string
		run   func(context.Context, Env, Preset, int64) ([]AblationRow, error)
	}{
		{"normalization (alpha=1)", AblationNormalization},
		{"publish gate", AblationPublishGate},
		{"walk entry depth", AblationWalkDepth},
		{"reference walks", AblationReferenceWalks},
		{"selector family", AblationSelectors},
		{"partial layer sharing", AblationPartialSharing},
	} {
		rows, err := a.run(ctx, env, p, seed)
		if err != nil {
			return "", nil, err
		}
		b.WriteString(RenderAblation(a.title, rows))
		b.WriteString("\n")
		ms = append(ms, variantAccs(rows)...)
	}
	return b.String(), ms, nil
}
