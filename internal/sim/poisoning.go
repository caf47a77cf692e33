package sim

import (
	"context"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// poisonRounds returns (clean rounds before attack, attack rounds).
func poisonRounds(p Preset) (clean, attack int) {
	if p == Full {
		return 100, 100 // paper: poison after 100 rounds, observe to 200
	}
	return 10, 30
}

// flipAttack tunes a config into the flipped-label attack of §5.3.4 (labels
// 3↔8): fraction of the clients turn malicious once the clean rounds are
// over, and the run tracks the attack's reach.
func flipAttack(p Preset, fraction float64) func(*core.Config) {
	clean, attack := poisonRounds(p)
	return func(cfg *core.Config) {
		cfg.Rounds = clean + attack
		cfg.Poison = core.PoisonConfig{Fraction: fraction, FlipA: 3, FlipB: 8, StartRound: clean, Track: true}
	}
}

// Figure12And13 reproduces Figs. 12 and 13 (two views of the same runs):
// the flipped-label attack on the by-writer FMNIST split. Scenarios: p=0.0
// baseline, p=0.2 and p=0.3 with the accuracy tip selector, and p=0.2 with
// the random tip selector. Each curve starts at the attack round (cols:
// round, flippedPct, flippedBenignPct, poisonedApprovals). The scenarios
// share one federation: poisoning flips labels on each simulation's private
// copies.
func Figure12And13(ctx context.Context, env Env, p Preset, seed int64) ([]Curve, error) {
	scenarios := []struct {
		label    string
		fraction float64
		selector tipselect.Selector
	}{
		{"p=0.0", 0, tipselect.AccuracyWalk{Alpha: 10}},
		{"p=0.2", 0.2, tipselect.AccuracyWalk{Alpha: 10}},
		{"p=0.2 random", 0.2, tipselect.URTS{}},
		{"p=0.3", 0.3, tipselect.AccuracyWalk{Alpha: 10}},
	}
	spec := ByWriterFMNISTSpec(p, seed)
	lines := make([]line, len(scenarios))
	for si, sc := range scenarios {
		lines[si] = dagLine("fig12_13-"+sc.label, spec, p, sc.selector, seed+int64(si), flipAttack(p, sc.fraction))
	}
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	clean, _ := poisonRounds(p)
	out := make([]Curve, len(scenarios))
	for si, sc := range scenarios {
		series := metrics.NewSeries(sc.label, "round", "flippedPct", "flippedBenignPct", "poisonedApprovals")
		for _, rr := range engines[si].(*core.Simulation).Results()[clean:] {
			series.Add(float64(rr.Round),
				100*rr.MeanFlippedFrac(),
				100*rr.MeanFlippedFracBenign(),
				rr.MeanRefPoisonedApprovals())
		}
		out[si] = Curve{Label: sc.label, Series: series}
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
	spec := ByWriterFMNISTSpec(p, seed)
	engines, err := sweep(ctx, env, []line{
		dagLine("fig14", spec, p, tipselect.AccuracyWalk{Alpha: 10}, seed, flipAttack(p, 0.3)),
	})
	if err != nil {
		return nil, err
	}
	sim := engines[0].(*core.Simulation)

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
