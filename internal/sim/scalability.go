package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/profiling"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
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

	// This is a *measurement* experiment: walkMicros is a client's walking
	// wall clock, which oversubscribed cores would contaminate with
	// scheduler contention. So the levels run one after the other, off the
	// grid, and each simulation runs its clients on a single worker, off the
	// shared pool — timing fidelity over throughput, and no checkpoint I/O
	// inside the timed region. One worker also keeps every walk on this
	// goroutine, so the walk timer needs no lock. (The harness's sweeps stay
	// parallel; their metrics are hardware-independent.)
	spec := ByWriterFMNISTSpec(p, seed)
	out := make([]Fig15Curve, len(levels))
	for li, active := range levels {
		active = min(active, len(spec.Fed.Clients))
		timer := &walkTimer{Selector: tipselect.AccuracyWalk{Alpha: 10, DepthMin: 15, DepthMax: 25}}
		cfg := spec.DAGConfig(env, p, timer, seed+int64(li))
		cfg.Rounds = rounds
		cfg.ClientsPerRound = active
		cfg.EvalScope = core.EvalScopeNone // re-evaluate on every walk, like the prototype
		cfg.Workers = 1                    // uncontended walks: see the fidelity note above
		cfg.Pool = nil
		var walked []time.Duration // per round, its clients' walks together
		sim, err := core.NewSimulation(spec.Fed, cfg)
		if err == nil {
			_, err = engine.Run(ctx, sim, engine.WithHooks(engine.Hooks{OnRound: func(engine.RoundEvent) {
				walked = append(walked, timer.total)
				timer.total = 0
			}}))
		}
		if err != nil {
			return nil, fmt.Errorf("fig15-active=%d: %w", active, err)
		}
		series := metrics.NewSeries(fmt.Sprintf("%d active clients", active),
			"round", "walkMicros", "evalsPerClient")
		for r, rr := range sim.Results() {
			clients := len(rr.Active)
			series.Add(float64(rr.Round+1),
				float64((walked[r] / time.Duration(clients)).Microseconds()),
				float64(rr.Walk.Evaluations)/float64(clients))
		}
		out[li] = Fig15Curve{ActiveClients: active, Series: series}
	}
	return out, nil
}

// walkTimer is Fig. 15's selector: the level's walk, timed. An activation
// makes every walk through it — the two tip walks and the reference walks —
// so total is the wall clock its clients spent walking since the last reset.
// The graph, evaluator and RNG pass through untouched, so the tips and walk
// statistics are the inner selector's own.
type walkTimer struct {
	tipselect.Selector
	total time.Duration
}

func (w *walkTimer) SelectTip(d tipselect.Graph, eval tipselect.Evaluator, rng *xrand.RNG) (*dag.Transaction, tipselect.WalkStats) {
	watch := profiling.StartStopwatch()
	tx, st := w.Selector.SelectTip(d, eval, rng)
	w.total += watch.Elapsed()
	return tx, st
}
