package sim

import (
	"context"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
)

// GossipComparison is an extension experiment beyond the paper's figures:
// it pits the Specializing DAG against gossip learning (the other
// decentralized family, §3.2) and FedAvg on the clustered dataset. The DAG's
// performance-aware merge partner selection should beat gossip's random
// partners on non-IID data.
func GossipComparison(ctx context.Context, env Env, p Preset, seed int64) ([]Curve, error) {
	spec := FMNISTSpec(p, seed)
	gossip := line{name: "gossipcmp-gossip", open: func(Env, io.Reader) (engine.Engine, error) {
		return fl.NewGossip(spec.Fed, fl.GossipConfig{
			Rounds:          p.Rounds(),
			ClientsPerRound: p.ClientsPerRound(),
			Local:           spec.Local,
			Arch:            spec.Arch,
			Seed:            seed + 61,
		})
	}}
	return accLossCurves(ctx, env, []string{"FedAvg", "Gossip", "DAG"}, []line{
		fedLine("gossipcmp-fedavg", spec, p, 0, seed+60),
		gossip,
		dagLine("gossipcmp-dag", spec, p, spec.Selector, seed+62),
	})
}

// VisibilitySweep is an extension experiment relaxing the ideal-broadcast
// assumption the paper makes in §5.3.5: transactions become visible to other
// clients only RevealDelay rounds after publication. The sweep measures how
// stale views affect specialization (pureness) and accuracy.
func VisibilitySweep(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	var variants []variant
	for _, d := range []int{0, 1, 3, 5} {
		variants = append(variants, variant{fmt.Sprintf("reveal-delay=%d", d), func(c *core.Config) { c.RevealDelay = d }})
	}
	return runVariants(ctx, env, p, seed, "visibility-", variants)
}
