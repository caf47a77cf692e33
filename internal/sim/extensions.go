package sim

import (
	"context"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/metrics"
)

// GossipComparison is an extension experiment beyond the paper's figures:
// it pits the Specializing DAG against gossip learning (the other
// decentralized family, §3.2) and FedAvg on the clustered dataset. The DAG's
// performance-aware merge partner selection should beat gossip's random
// partners on non-IID data. The three algorithm runs only read the shared
// federation; they run as independent cells on the shared scheduler.
func GossipComparison(ctx context.Context, env Env, p Preset, seed int64) ([]Fig1011Curve, error) {
	spec := FMNISTSpec(p, seed)
	out := make([]Fig1011Curve, 3)

	cells := []Cell{
		{
			Name: "gossipcmp-fedavg",
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				fedEng, err := fl.NewFederated(spec.Fed, spec.FLConfig(env, p, 0, seed+60))
				if err != nil {
					return nil, nil, err
				}
				return fedEng, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				out[0] = curveFromFL("FedAvg", eng.(*fl.Federated).Result())
				return nil
			},
		},
		{
			Name: "gossipcmp-gossip",
			Build: func(Env, io.Reader) (engine.Engine, []engine.Option, error) {
				gossipEng, err := fl.NewGossip(spec.Fed, fl.GossipConfig{
					Rounds:          p.Rounds(),
					ClientsPerRound: p.ClientsPerRound(),
					Local:           spec.Local,
					Arch:            spec.Arch,
					Seed:            seed + 61,
				})
				if err != nil {
					return nil, nil, err
				}
				return gossipEng, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				out[1] = curveFromFL("Gossip", eng.(*fl.Gossip).Result())
				return nil
			},
		},
		dagCurveCell(p, spec, seed+62, "gossipcmp-dag", &out[2]),
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}

func curveFromFL(name string, res *fl.Result) Fig1011Curve {
	series := metrics.NewSeries(name, "round", "acc", "loss")
	for r, rr := range res.Rounds {
		series.Add(float64(r+1), rr.MeanAcc, rr.MeanLoss)
	}
	return Fig1011Curve{Algorithm: name, Series: series}
}

// VisibilitySweep is an extension experiment relaxing the ideal-broadcast
// assumption the paper makes in §5.3.5: transactions become visible to other
// clients only RevealDelay rounds after publication. The sweep measures how
// stale views affect specialization (pureness) and accuracy.
func VisibilitySweep(ctx context.Context, env Env, p Preset, seed int64) ([]AblationRow, error) {
	delays := []int{0, 1, 3, 5}
	rows := make([]AblationRow, len(delays))
	cells := make([]Cell, len(delays))
	for i, d := range delays {
		d := d
		cells[i] = variantCell(p, seed, "visibility-", fmt.Sprintf("reveal-delay=%d", d), func(c *core.Config) {
			c.RevealDelay = d
		}, &rows[i])
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return rows, nil
}
