package sim

import (
	"context"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/tipselect"
)

// AblationRow summarizes one design-choice variant on FMNIST-clustered:
// final accuracy (mean over the last five rounds), approval pureness, DAG
// size and total walk evaluations.
type AblationRow struct {
	Variant   string
	FinalAcc  float64
	Pureness  float64
	DAGSize   int
	WalkEvals int
}

// variantCell builds one grid cell running an FMNIST DAG simulation with the
// config customized by mutate, extracting an AblationRow into *out. prefix
// namespaces the cell (and its checkpoint file) per caller.
func variantCell(p Preset, seed int64, prefix, variant string, mutate func(*core.Config), out *AblationRow) Cell {
	spec := FMNISTSpec(p, seed)
	return Cell{
		Name:     prefix + variant,
		Snapshot: true,
		Build: func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error) {
			cfg := spec.DAGConfig(env, p, tipselect.AccuracyWalk{Alpha: 10}, seed)
			mutate(&cfg)
			sim, err := buildDAG(spec, cfg, ckpt)
			if err != nil {
				return nil, nil, err
			}
			return sim, nil, nil
		},
		Finish: func(eng engine.Engine) error {
			sim := eng.(*core.Simulation)
			results := sim.Results()
			evals := 0
			accSum, accN := 0.0, 0
			tail := 5
			if len(results) < tail {
				tail = len(results)
			}
			for i, rr := range results {
				evals += rr.Walk.Evaluations
				if i >= len(results)-tail {
					accSum += rr.MeanTrainedAcc()
					accN++
				}
			}
			*out = AblationRow{
				Variant:   variant,
				FinalAcc:  accSum / float64(accN),
				Pureness:  metrics.ApprovalPureness(sim.DAG(), spec.Fed.ClusterOf()),
				DAGSize:   sim.DAG().Size(),
				WalkEvals: evals,
			}
			return nil
		},
	}
}

// runVariants submits every variant as an independent grid cell on the
// shared scheduler; rows come back in variant order.
func runVariants(ctx context.Context, env Env, p Preset, seed int64, variants []struct {
	name   string
	mutate func(*core.Config)
}) ([]AblationRow, error) {
	rows := make([]AblationRow, len(variants))
	cells := make([]Cell, len(variants))
	for i, v := range variants {
		cells[i] = variantCell(p, seed, "ablation-", v.name, v.mutate, &rows[i])
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationNormalization compares Eq. 1 vs Eq. 3 at α = 1, where the paper
// reports the dynamic normalization helps (pureness 0.51 vs 0.40).
func AblationNormalization(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"standard(alpha=1)", func(c *core.Config) { c.Selector = tipselect.AccuracyWalk{Alpha: 1} }},
		{"dynamic(alpha=1)", func(c *core.Config) {
			c.Selector = tipselect.AccuracyWalk{Alpha: 1, Norm: tipselect.NormDynamic}
		}},
	})
}

// AblationPublishGate compares the publish-if-better gate (§4.1) against
// unconditional publishing.
func AblationPublishGate(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"gate-on", func(c *core.Config) {}},
		{"gate-off", func(c *core.Config) { c.DisablePublishGate = true }},
	})
}

// AblationWalkDepth compares genesis-start walks against the depth-15–25
// entry sampling proposed by Popov and used in §5.3.5.
func AblationWalkDepth(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"genesis-start", func(c *core.Config) {}},
		{"depth-15-25", func(c *core.Config) {
			c.Selector = tipselect.AccuracyWalk{Alpha: 10, DepthMin: 15, DepthMax: 25}
		}},
	})
}

// AblationReferenceWalks compares 1 vs 3 walks for the consensus reference
// model.
func AblationReferenceWalks(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"ref-walks=1", func(c *core.Config) { c.ReferenceWalks = 1 }},
		{"ref-walks=3", func(c *core.Config) { c.ReferenceWalks = 3 }},
	})
}

// AblationPartialSharing compares full model sharing against the paper's
// future-work extension of sharing only the first layer (personal heads).
func AblationPartialSharing(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"share-all-layers", func(c *core.Config) {}},
		{"share-first-layer", func(c *core.Config) { c.SharedLayers = 1 }},
	})
}

// AblationSelectors compares the three selector families: the paper's
// accuracy walk, the classic cumulative-weight walk, and uniform random tip
// selection.
func AblationSelectors(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"accuracy-walk", func(c *core.Config) {}},
		{"weighted-walk", func(c *core.Config) { c.Selector = tipselect.WeightedWalk{Alpha: 0.1} }},
		{"urts", func(c *core.Config) { c.Selector = tipselect.URTS{} }},
	})
}
