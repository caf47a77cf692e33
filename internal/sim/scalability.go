package sim

import (
	"context"
	"fmt"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/tipselect"
)

// Fig15Curve is one concurrency level of the scalability experiment: the
// average per-client random-walk cost per round.
type Fig15Curve struct {
	ActiveClients int
	Series        *metrics.Series // cols: round, walkMicros, evalsPerClient
}

// Figure15 reproduces Fig. 15: the time a client spends on the random walk
// as the number of concurrently active clients grows (5/10/20/40). Walks
// start at a transaction sampled at depth 15–25 from the tips, as in the
// paper; accuracy memoization is disabled so every walk re-evaluates
// children, matching the prototype's cost profile.
//
// Both wall-clock microseconds and the hardware-independent count of model
// evaluations per client are reported; the paper's claim is that neither
// grows with concurrency.
func Figure15(ctx context.Context, env Env, p Preset, seed int64) ([]Fig15Curve, error) {
	levels := []int{5, 10, 20, 40}
	rounds := p.Rounds()
	if p == Quick {
		levels = []int{5, 10, 20}
	}

	// This is a *measurement* experiment: walkMicros is per-walk wall
	// clock, which oversubscribed cores would contaminate with scheduler
	// contention. So the levels run one after the other, off the grid, and
	// each simulation runs its clients on a single worker, off the shared
	// pool — timing fidelity over throughput, and no checkpoint I/O inside
	// the timed region. (The harness's sweeps stay parallel; their metrics
	// are hardware-independent.)
	spec := ByWriterFMNISTSpec(p, seed)
	out := make([]Fig15Curve, len(levels))
	for li, active := range levels {
		active = min(active, len(spec.Fed.Clients))
		cfg := spec.DAGConfig(env, p, tipselect.AccuracyWalk{Alpha: 10, DepthMin: 15, DepthMax: 25}, seed+int64(li))
		cfg.Rounds = rounds
		cfg.ClientsPerRound = active
		cfg.EvalScope = core.EvalScopeNone // re-evaluate on every walk, like the prototype
		cfg.MeasureWalkTime = true
		cfg.Workers = 1 // uncontended walks: see the fidelity note above
		cfg.Pool = nil
		sim, err := core.NewSimulation(spec.Fed, cfg)
		if err == nil {
			_, err = engine.Run(ctx, sim)
		}
		if err != nil {
			return nil, fmt.Errorf("fig15-active=%d: %w", active, err)
		}
		series := metrics.NewSeries(fmt.Sprintf("%d active clients", active),
			"round", "walkMicros", "evalsPerClient")
		for _, rr := range sim.Results() {
			series.Add(float64(rr.Round+1),
				float64(rr.MeanWalkDuration().Microseconds()),
				float64(rr.Walk.Evaluations)/float64(len(rr.Active)))
		}
		out[li] = Fig15Curve{ActiveClients: active, Series: series}
	}
	return out, nil
}
