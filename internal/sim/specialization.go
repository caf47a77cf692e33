package sim

import (
	"context"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// runDAG builds a simulation for cfg and drives it through the unified run
// API with the given options, returning the simulation for post-run metrics.
// Single-run experiments go through here; sweeps submit their cells to the
// scheduler via RunGrid instead.
func runDAG(ctx context.Context, spec Spec, cfg core.Config, opts ...engine.Option) (*core.Simulation, error) {
	sim, err := core.NewSimulation(spec.Fed, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := engine.Run(ctx, sim, opts...); err != nil {
		return nil, err
	}
	return sim, nil
}

// buildDAG constructs the simulation for one grid cell, resuming from a
// cell checkpoint when the grid hands one down.
func buildDAG(spec Spec, cfg core.Config, ckpt io.Reader) (*core.Simulation, error) {
	if ckpt != nil {
		return core.ResumeSimulation(spec.Fed, cfg, ckpt)
	}
	return core.NewSimulation(spec.Fed, cfg)
}

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
	rows := make([]Table2Row, len(specs))
	cells := make([]Cell, len(specs))
	for i := range specs {
		i, spec := i, specs[i]
		cells[i] = Cell{
			Name:     "table2-" + spec.Name,
			Snapshot: true,
			Build: func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error) {
				sim, err := buildDAG(spec, spec.DAGConfig(env, p, spec.Selector, seed+int64(10+i)), ckpt)
				if err != nil {
					return nil, nil, err
				}
				return sim, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				sim := eng.(*core.Simulation)
				rows[i] = Table2Row{
					Dataset:  spec.Name,
					Clusters: spec.Fed.NumClusters,
					Base:     spec.Fed.BasePureness(),
					Pureness: metrics.ApprovalPureness(sim.DAG(), spec.Fed.ClusterOf()),
				}
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
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
// G_clients analysis rides the run as an observer hook — a mid-run metric
// probe over the live DAG.
func Figure5(ctx context.Context, env Env, p Preset, seed int64) ([]Fig5Result, error) {
	alphas := []float64{1, 10, 100}
	sampleEvery := 5
	if p == Quick {
		sampleEvery = 2
	}

	out := make([]Fig5Result, len(alphas))
	cells := make([]Cell, len(alphas))
	for ai := range alphas {
		ai, alpha := ai, alphas[ai]
		var series *metrics.Series
		cells[ai] = Cell{
			// The periodic Louvain analysis streams off live round events,
			// so the cell restarts rather than resumes after a crash
			// (Snapshot off): a resumed run could not replay the G_clients
			// snapshots of rounds before the checkpoint.
			Name: fmt.Sprintf("fig5-alpha=%g", alpha),
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				spec := FMNISTSpec(p, seed)
				sel := tipselect.AccuracyWalk{Alpha: alpha}
				sim, err := core.NewSimulation(spec.Fed, spec.DAGConfig(env, p, sel, seed+int64(ai)))
				if err != nil {
					return nil, nil, err
				}
				truth := spec.Fed.ClusterOf()
				series = metrics.NewSeries(fmt.Sprintf("fig5 alpha=%g", alpha),
					"round", "modularity", "partitions", "misclassification")
				lrng := xrand.New(seed + 100 + int64(ai))
				return sim, []engine.Option{engine.WithHooks(engine.Hooks{
					OnRound: func(ev engine.RoundEvent) {
						if (ev.Round+1)%sampleEvery != 0 {
							return
						}
						g := metrics.BuildClientGraph(sim.DAG())
						part := graphx.Louvain(g, lrng)
						series.Add(float64(ev.Round+1),
							graphx.Modularity(g, part),
							float64(graphx.NumCommunities(part)),
							metrics.Misclassification(part, truth))
					},
				})}, nil
			},
			Finish: func(engine.Engine) error {
				out[ai] = Fig5Result{Alpha: alpha, Series: series}
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}

// AccuracyCurve is a labeled per-round accuracy trajectory.
type AccuracyCurve struct {
	Label  string
	Series *metrics.Series // cols: round, acc
}

// accuracySweep runs the DAG once per α and records the mean trained-model
// accuracy per round, streamed through round events.
func accuracySweep(ctx context.Context, env Env, p Preset, spec func(int) Spec, norm tipselect.Normalization, seed int64) ([]AccuracyCurve, error) {
	alphas := []float64{0.1, 1, 10, 100}
	out := make([]AccuracyCurve, len(alphas))
	cells := make([]Cell, len(alphas))
	for ai := range alphas {
		ai, alpha := ai, alphas[ai]
		series := metrics.NewSeries(fmt.Sprintf("alpha=%g (%s)", alpha, norm), "round", "acc")
		cells[ai] = Cell{
			Name: fmt.Sprintf("accsweep-%s-%s-alpha=%g", spec(ai).Name, norm, alpha),
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				sp := spec(ai)
				sel := tipselect.AccuracyWalk{Alpha: alpha, Norm: norm}
				sim, err := core.NewSimulation(sp.Fed, sp.DAGConfig(env, p, sel, seed+int64(ai)))
				if err != nil {
					return nil, nil, err
				}
				return sim, []engine.Option{engine.WithHooks(engine.Hooks{
					OnRound: func(ev engine.RoundEvent) {
						series.Add(float64(ev.Round+1), ev.MeanAcc)
					},
				})}, nil
			},
			Finish: func(engine.Engine) error {
				out[ai] = AccuracyCurve{Label: fmt.Sprintf("alpha=%g", alpha), Series: series}
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure6 reproduces Fig. 6: accuracy per round on FMNIST-clustered for
// α ∈ {0.1, 1, 10, 100} with the standard normalization (Eq. 1).
func Figure6(ctx context.Context, env Env, p Preset, seed int64) ([]AccuracyCurve, error) {
	return accuracySweep(ctx, env, p, func(int) Spec { return FMNISTSpec(p, seed) }, tipselect.NormStandard, seed)
}

// Fig7Result extends the accuracy sweep with the approval pureness achieved
// by each normalization at α = 1 (the paper reports 0.51 dynamic vs 0.40
// standard).
type Fig7Result struct {
	Curves []AccuracyCurve
	// PurenessAlpha1 maps normalization name to approval pureness of the
	// α=1 run.
	PurenessAlpha1 map[string]float64
}

// Figure7 reproduces Fig. 7: the accuracy sweep with the dynamic
// normalization (Eq. 3), plus the α=1 pureness comparison against the
// standard normalization.
func Figure7(ctx context.Context, env Env, p Preset, seed int64) (*Fig7Result, error) {
	curves, err := accuracySweep(ctx, env, p, func(int) Spec { return FMNISTSpec(p, seed) }, tipselect.NormDynamic, seed)
	if err != nil {
		return nil, err
	}
	norms := []tipselect.Normalization{tipselect.NormStandard, tipselect.NormDynamic}
	vals := make([]float64, len(norms))
	cells := make([]Cell, len(norms))
	for i := range norms {
		i, norm := i, norms[i]
		spec := FMNISTSpec(p, seed)
		cells[i] = Cell{
			Name:     fmt.Sprintf("fig7-norm-%s", norm),
			Snapshot: true,
			Build: func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error) {
				sim, err := buildDAG(spec, spec.DAGConfig(env, p, tipselect.AccuracyWalk{Alpha: 1, Norm: norm}, seed+50), ckpt)
				if err != nil {
					return nil, nil, err
				}
				return sim, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				vals[i] = metrics.ApprovalPureness(eng.(*core.Simulation).DAG(), spec.Fed.ClusterOf())
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	pureness := make(map[string]float64, len(norms))
	for i, norm := range norms {
		pureness[norm.String()] = vals[i]
	}
	return &Fig7Result{Curves: curves, PurenessAlpha1: pureness}, nil
}

// Figure8 reproduces Fig. 8: the α accuracy sweep on the relaxed
// FMNIST-clustered dataset (15–20 % foreign-cluster data per client).
func Figure8(ctx context.Context, env Env, p Preset, seed int64) ([]AccuracyCurve, error) {
	return accuracySweep(ctx, env, p, func(int) Spec { return RelaxedFMNISTSpec(p, seed) }, tipselect.NormStandard, seed)
}
