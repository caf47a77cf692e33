package sim

import (
	"context"
	"fmt"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// Table2Row is one row of Table 2: the approval pureness in the DAG after
// training with the accuracy walk, against the random-approval baseline.
type Table2Row struct {
	Dataset  string
	Clusters int
	Base     float64
	Pureness float64
}

// Table2 reproduces Table 2: approval pureness after training on all three
// datasets, each with its spec's headline selector.
func Table2(ctx context.Context, env Env, p Preset, seed int64) ([]Table2Row, error) {
	specs := []Spec{FMNISTSpec(p, seed), PoetsSpec(p, seed+1), CIFARSpec(p, seed+2)}
	lines := make([]line, len(specs))
	for i, spec := range specs {
		lines[i] = dagLine("table2-"+spec.Name, spec, p, spec.Selector, seed+int64(10+i))
	}
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(specs))
	for i, spec := range specs {
		rows[i] = Table2Row{
			Dataset:  spec.Name,
			Clusters: spec.Fed.NumClusters,
			Base:     spec.Fed.BasePureness(),
			Pureness: metrics.ApprovalPureness(engines[i].(*core.Simulation).DAG(), spec.Fed.ClusterOf()),
		}
	}
	return rows, nil
}

// Fig5Result is one α's trajectory of the three G_clients metrics of §4.3.
type Fig5Result struct {
	Alpha  float64
	Series *metrics.Series // cols: round, modularity, partitions, misclassification
}

// Figure5 reproduces Fig. 5: modularity, partition count and
// misclassification fraction of the Louvain partition of G_clients over
// training rounds, for α ∈ {1, 10, 100} on FMNIST-clustered. The periodic
// analysis needs the tangle as it stood at each sampled round, which no
// finished engine retains, so it watches the run.
func Figure5(ctx context.Context, env Env, p Preset, seed int64) ([]Fig5Result, error) {
	alphas := []float64{1, 10, 100}
	sampleEvery := 5
	if p == Quick {
		sampleEvery = 2
	}
	spec := FMNISTSpec(p, seed)
	truth := spec.Fed.ClusterOf()

	out := make([]Fig5Result, len(alphas))
	lines := make([]line, len(alphas))
	for ai, alpha := range alphas {
		series := metrics.NewSeries(fmt.Sprintf("fig5 alpha=%g", alpha),
			"round", "modularity", "partitions", "misclassification")
		out[ai] = Fig5Result{Alpha: alpha, Series: series}
		lrng := xrand.New(seed + 100 + int64(ai))
		lines[ai] = dagLine(fmt.Sprintf("fig5-alpha=%g", alpha), spec, p, tipselect.AccuracyWalk{Alpha: alpha}, seed+int64(ai))
		lines[ai].watch = func(eng engine.Engine, ev engine.RoundEvent) {
			if (ev.Round+1)%sampleEvery != 0 {
				return
			}
			g := metrics.BuildClientGraph(eng.(*core.Simulation).DAG())
			part := graphx.Louvain(g, lrng)
			series.Add(float64(ev.Round+1),
				graphx.Modularity(g, part),
				float64(graphx.NumCommunities(part)),
				metrics.Misclassification(part, truth))
		}
	}
	if _, err := sweep(ctx, env, lines); err != nil {
		return nil, err
	}
	return out, nil
}

// accuracySweep runs the DAG on spec once per α and reads the mean
// trained-model accuracy per round off each run.
func accuracySweep(ctx context.Context, env Env, p Preset, spec Spec, norm tipselect.Normalization, seed int64) ([]Curve, error) {
	alphas := []float64{0.1, 1, 10, 100}
	labels := make([]string, len(alphas))
	lines := make([]line, len(alphas))
	for ai, alpha := range alphas {
		labels[ai] = fmt.Sprintf("alpha=%g", alpha)
		lines[ai] = dagLine(fmt.Sprintf("accsweep-%s-%s-alpha=%g", spec.Name, norm, alpha),
			spec, p, tipselect.AccuracyWalk{Alpha: alpha, Norm: norm}, seed+int64(ai))
	}
	return accLossCurves(ctx, env, labels, lines)
}

// Figure6 reproduces Fig. 6: accuracy per round on FMNIST-clustered for
// α ∈ {0.1, 1, 10, 100} with the standard normalization (Eq. 1).
func Figure6(ctx context.Context, env Env, p Preset, seed int64) ([]Curve, error) {
	return accuracySweep(ctx, env, p, FMNISTSpec(p, seed), tipselect.NormStandard, seed)
}

// Fig7Result extends the accuracy sweep with the approval pureness achieved
// by each normalization at α = 1 (the paper reports 0.51 dynamic vs 0.40
// standard).
type Fig7Result struct {
	Curves []Curve
	// PurenessAlpha1 maps normalization name to approval pureness of the
	// α=1 run.
	PurenessAlpha1 map[string]float64
}

// Figure7 reproduces Fig. 7: the accuracy sweep with the dynamic
// normalization (Eq. 3), plus the α=1 pureness comparison against the
// standard normalization.
func Figure7(ctx context.Context, env Env, p Preset, seed int64) (*Fig7Result, error) {
	spec := FMNISTSpec(p, seed)
	curves, err := accuracySweep(ctx, env, p, spec, tipselect.NormDynamic, seed)
	if err != nil {
		return nil, err
	}
	norms := []tipselect.Normalization{tipselect.NormStandard, tipselect.NormDynamic}
	lines := make([]line, len(norms))
	for i, norm := range norms {
		lines[i] = dagLine(fmt.Sprintf("fig7-norm-%s", norm), spec, p, tipselect.AccuracyWalk{Alpha: 1, Norm: norm}, seed+50)
	}
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	pureness := make(map[string]float64, len(norms))
	for i, norm := range norms {
		pureness[norm.String()] = metrics.ApprovalPureness(engines[i].(*core.Simulation).DAG(), spec.Fed.ClusterOf())
	}
	return &Fig7Result{Curves: curves, PurenessAlpha1: pureness}, nil
}

// Figure8 reproduces Fig. 8: the α accuracy sweep on the relaxed
// FMNIST-clustered dataset (15–20 % foreign-cluster data per client).
func Figure8(ctx context.Context, env Env, p Preset, seed int64) ([]Curve, error) {
	return accuracySweep(ctx, env, p, RelaxedFMNISTSpec(p, seed), tipselect.NormStandard, seed)
}
