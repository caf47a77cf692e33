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

// PoisonCurve is one scenario of the poisoning study (Figs. 12 and 13):
// flipped-prediction percentage and poisoned-approval counts per round,
// starting at the attack round.
type PoisonCurve struct {
	Label  string
	Series *metrics.Series // cols: round, flippedPct, poisonedApprovals
}

// poisonScenario describes one line of Figs. 12/13.
type poisonScenario struct {
	label    string
	fraction float64
	selector tipselect.Selector
}

// poisonRounds returns (clean rounds before attack, attack rounds).
func poisonRounds(p Preset) (clean, attack int) {
	if p == Full {
		return 100, 100 // paper: poison after 100 rounds, observe to 200
	}
	return 10, 30
}

// Figure12And13 reproduces Figs. 12 and 13: the flipped-label attack
// (labels 3↔8) on the by-writer FMNIST split. Scenarios: p=0.0 baseline,
// p=0.2 and p=0.3 with the accuracy tip selector, and p=0.2 with the random
// tip selector. The per-round attack metrics stream out of the run through
// round events (Detail carries the full core.RoundResult).
func Figure12And13(ctx context.Context, env Env, p Preset, seed int64) ([]PoisonCurve, error) {
	clean, attack := poisonRounds(p)
	scenarios := []poisonScenario{
		{"p=0.0", 0, tipselect.AccuracyWalk{Alpha: 10}},
		{"p=0.2", 0.2, tipselect.AccuracyWalk{Alpha: 10}},
		{"p=0.2 random", 0.2, tipselect.URTS{}},
		{"p=0.3", 0.3, tipselect.AccuracyWalk{Alpha: 10}},
	}

	// Each scenario owns its federation (poisoning flips labels in place on
	// the simulation's private copies), so the cells are fully independent.
	// The per-round metrics stream off live round events, so the cells restart
	// rather than resume after a crash (Snapshot off).
	out := make([]PoisonCurve, len(scenarios))
	cells := make([]Cell, len(scenarios))
	for si := range scenarios {
		si, sc := si, scenarios[si]
		series := metrics.NewSeries(sc.label, "round", "flippedPct", "flippedBenignPct", "poisonedApprovals")
		cells[si] = Cell{
			Name: "fig12_13-" + sc.label,
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				spec := ByWriterFMNISTSpec(p, seed)
				cfg := spec.DAGConfig(env, p, sc.selector, seed+int64(si))
				cfg.Rounds = clean + attack
				cfg.Poison = core.PoisonConfig{
					Fraction:   sc.fraction,
					FlipA:      3,
					FlipB:      8,
					StartRound: clean,
					Track:      true,
				}
				sim, err := core.NewSimulation(spec.Fed, cfg)
				if err != nil {
					return nil, nil, err
				}
				return sim, []engine.Option{engine.WithHooks(engine.Hooks{
					OnRound: func(ev engine.RoundEvent) {
						if ev.Round < clean {
							return // the figures start at the attack round
						}
						rr := ev.Detail.(*core.RoundResult)
						series.Add(float64(ev.Round),
							100*rr.MeanFlippedFrac(),
							100*rr.MeanFlippedFracBenign(),
							rr.MeanRefPoisonedApprovals())
					},
				})}, nil
			},
			Finish: func(engine.Engine) error {
				out[si] = PoisonCurve{Label: sc.label, Series: series}
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig14Result is the distribution of poisoned clients over the communities
// inferred by Louvain at the end of a p=0.3 attack run.
type Fig14Result struct {
	Communities int
	Benign      []int
	Poisoned    []int
	// Containment is the fraction of poisoned clients that ended up in
	// communities where poisoned clients are the majority.
	Containment float64
}

// Figure14 reproduces Fig. 14: run the p=0.3 flipped-label attack, then
// cluster G_clients with Louvain and histogram benign vs poisoned clients
// per inferred community.
func Figure14(ctx context.Context, env Env, p Preset, seed int64) (*Fig14Result, error) {
	clean, attack := poisonRounds(p)
	spec := ByWriterFMNISTSpec(p, seed)
	cfg := spec.DAGConfig(env, p, tipselect.AccuracyWalk{Alpha: 10}, seed)
	cfg.Rounds = clean + attack
	cfg.Poison = core.PoisonConfig{Fraction: 0.3, FlipA: 3, FlipB: 8, StartRound: clean, Track: true}
	sim, err := runDAG(ctx, spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("fig14: %w", err)
	}

	g := metrics.BuildClientGraph(sim.DAG())
	part := graphx.Louvain(g, xrand.New(seed+7))
	poisoned := sim.PoisonedClients()
	benign, bad := metrics.ClusterHistogram(part, poisoned)

	contained, total := 0, 0
	for client, comm := range part {
		if !poisoned[client] {
			continue
		}
		total++
		if bad[comm] > benign[comm] {
			contained++
		}
	}
	containment := 0.0
	if total > 0 {
		containment = float64(contained) / float64(total)
	}
	return &Fig14Result{
		Communities: graphx.NumCommunities(part),
		Benign:      benign,
		Poisoned:    bad,
		Containment: containment,
	}, nil
}
