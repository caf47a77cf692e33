package sim

import (
	"context"

	"github.com/specdag/specdag/internal/core"
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

// variant is one ablation row: a name and what it changes in the FMNIST
// accuracy-walk (α = 10) config.
type variant struct {
	name   string
	mutate func(*core.Config)
}

// runVariants sweeps the variants on FMNIST-clustered, all from the same
// seed, and summarizes each finished run; rows come back in variant order.
// prefix namespaces the lines (and their checkpoint files) per caller.
func runVariants(ctx context.Context, env Env, p Preset, seed int64, prefix string, variants []variant) ([]AblationRow, error) {
	spec := FMNISTSpec(p, seed)
	lines := make([]line, len(variants))
	for i, v := range variants {
		lines[i] = dagLine(prefix+v.name, spec, p, tipselect.AccuracyWalk{Alpha: 10}, seed, v.mutate)
	}
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(variants))
	for i, v := range variants {
		sim := engines[i].(*core.Simulation)
		results := sim.Results()
		evals := 0
		for _, rr := range results {
			evals += rr.Walk.Evaluations
		}
		tail := results[max(0, len(results)-5):]
		accSum := 0.0
		for _, rr := range tail {
			accSum += rr.MeanTrainedAcc()
		}
		rows[i] = AblationRow{
			Variant:   v.name,
			FinalAcc:  accSum / float64(len(tail)),
			Pureness:  metrics.ApprovalPureness(sim.DAG(), spec.Fed.ClusterOf()),
			DAGSize:   sim.DAG().Size(),
			WalkEvals: evals,
		}
	}
	return rows, nil
}

// AblationNormalization compares Eq. 1 vs Eq. 3 at α = 1, where the paper
// reports the dynamic normalization helps (pureness 0.51 vs 0.40).
func AblationNormalization(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, "ablation-", []variant{
		{"standard(alpha=1)", func(c *core.Config) { c.Selector = tipselect.AccuracyWalk{Alpha: 1} }},
		{"dynamic(alpha=1)", func(c *core.Config) {
			c.Selector = tipselect.AccuracyWalk{Alpha: 1, Norm: tipselect.NormDynamic}
		}},
	})
}

// AblationPublishGate compares the publish-if-better gate (§4.1) against
// unconditional publishing.
func AblationPublishGate(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, "ablation-", []variant{
		{"gate-on", func(c *core.Config) {}},
		{"gate-off", func(c *core.Config) { c.DisablePublishGate = true }},
	})
}

// AblationWalkDepth compares genesis-start walks against the depth-15–25
// entry sampling proposed by Popov and used in §5.3.5.
func AblationWalkDepth(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, "ablation-", []variant{
		{"genesis-start", func(c *core.Config) {}},
		{"depth-15-25", func(c *core.Config) {
			c.Selector = tipselect.AccuracyWalk{Alpha: 10, DepthMin: 15, DepthMax: 25}
		}},
	})
}

// AblationReferenceWalks compares 1 vs 3 walks for the consensus reference
// model.
func AblationReferenceWalks(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, "ablation-", []variant{
		{"ref-walks=1", func(c *core.Config) { c.ReferenceWalks = 1 }},
		{"ref-walks=3", func(c *core.Config) { c.ReferenceWalks = 3 }},
	})
}

// AblationPartialSharing compares full model sharing against the paper's
// future-work extension of sharing only the first layer (personal heads).
func AblationPartialSharing(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, "ablation-", []variant{
		{"share-all-layers", func(c *core.Config) {}},
		{"share-first-layer", func(c *core.Config) { c.SharedLayers = 1 }},
	})
}

// AblationSelectors compares the three selector families: the paper's
// accuracy walk, the classic cumulative-weight walk, and uniform random tip
// selection.
func AblationSelectors(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	return runVariants(ctx, env, p, seed, "ablation-", []variant{
		{"accuracy-walk", func(c *core.Config) {}},
		{"weighted-walk", func(c *core.Config) { c.Selector = tipselect.WeightedWalk{Alpha: 0.1} }},
		{"urts", func(c *core.Config) { c.Selector = tipselect.URTS{} }},
	})
}
