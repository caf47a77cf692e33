package sim

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/mathx"
)

// FaultScenarioNames lists the canned fault schedules, in sweep order.
func FaultScenarioNames() []string {
	return []string{"partition-heal", "straggler-3x", "churn-25"}
}

// FaultScenario resolves a named canned fault schedule against a run horizon
// (simulated seconds) and a base one-way link delay. Every scenario prices
// links individually — jittered lossy latency on top of the named disruption
// — so the async engine exercises the full per-link delivery model rather
// than the scalar compatibility path:
//
//   - partition-heal: the federation splits into two groups for the middle
//     quarter of the run ([T/4, T/2)) and heals; deferred transactions
//     deliver at the heal.
//   - straggler-3x: a quarter of the clients train 3× slower for the whole
//     run (cycle-time multiplier).
//   - churn-25: a quarter of the clients crash once, losing state, and
//     recover within T/4.
func FaultScenario(name string, horizon, delay float64) (faults.Config, error) {
	// The shared base is a lossy jittered network: 5% of initial broadcasts
	// drop and are recovered by one re-gossip round, 2% arrive twice.
	cfg := faults.Config{Delay: delay, Jitter: delay / 2, DropProb: 0.05, Retransmit: 1, DupProb: 0.02}
	switch name {
	case "partition-heal":
		cfg.Partitions = []faults.Partition{{From: horizon / 4, To: horizon / 2, Groups: 2}}
	case "straggler-3x":
		cfg.StragglerFrac = 0.25
		cfg.StragglerFactor = 3
	case "churn-25":
		cfg.ChurnFrac = 0.25
		cfg.MaxDowntime = horizon / 4
	default:
		return faults.Config{}, fmt.Errorf("sim: unknown fault scenario %q (want one of %s)",
			name, strings.Join(FaultScenarioNames(), " | "))
	}
	return cfg, nil
}

// FaultRow summarizes one fault scenario: the trained-model accuracy
// trajectory (first/last/mean over all client activations) and the
// communication counters the per-link delivery model produced.
type FaultRow struct {
	Scenario     string
	Events       int
	FirstAcc     float64
	LastAcc      float64
	MeanAcc      float64
	Transactions int
	Deliveries   int
	Dropped      int
	Duplicated   int
}

// FaultSweep runs every canned fault scenario on the async engine over the
// FMNIST-clustered federation and reports accuracy and communication
// outcomes. Like every sweep, the rows are bit-identical for any worker
// count (the per-event fault draws are keyed on stable identifiers, not on
// execution order), which is what lets TestExperimentsGolden pin the
// faults/* metrics.
func FaultSweep(ctx context.Context, env Env, p Preset, seed int64) ([]FaultRow, error) {
	duration := 12.0
	if p == Full {
		duration = 120
	}
	spec := FMNISTSpec(p, seed)
	names := FaultScenarioNames()
	// The row needs every event's accuracy, and the event engine keeps
	// per-client statistics, not an event history: the lines watch.
	accs := make([][]float64, len(names))
	lines := make([]line, len(names))
	for i, name := range names {
		lines[i] = line{
			name: "faults-" + name,
			open: func(env Env, _ io.Reader) (engine.Engine, error) {
				fc, err := FaultScenario(name, duration, 0.5)
				if err != nil {
					return nil, err
				}
				cfg := spec.AsyncDAGConfig(env, duration, 1, 8, 0, spec.Selector, seed+int64(i))
				cfg.Faults = fc
				return core.NewAsyncSimulation(spec.Fed, cfg)
			},
			watch: func(_ engine.Engine, ev engine.RoundEvent) {
				accs[i] = append(accs[i], ev.Detail.(*core.AsyncEvent).TrainedAcc)
			},
		}
	}
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	rows := make([]FaultRow, len(names))
	for i, name := range names {
		if len(accs[i]) == 0 {
			return nil, fmt.Errorf("fault scenario %q produced no events", name)
		}
		res := engines[i].(*core.AsyncSimulation).Result()
		rows[i] = FaultRow{
			Scenario:     name,
			Events:       len(accs[i]),
			FirstAcc:     accs[i][0],
			LastAcc:      accs[i][len(accs[i])-1],
			MeanAcc:      mathx.Mean(accs[i]),
			Transactions: res.Transactions,
			Deliveries:   res.Deliveries,
			Dropped:      res.DroppedDeliveries,
			Duplicated:   res.DuplicatedDeliveries,
		}
	}
	return rows, nil
}

// RenderFaults renders the fault-scenario sweep as a markdown table.
func RenderFaults(rows []FaultRow) string {
	var b strings.Builder
	b.WriteString("### Fault scenarios: training under partitions, stragglers and churn\n\n")
	b.WriteString("| scenario | events | first acc | last acc | mean acc | txs | deliveries | dropped→re-gossiped | duplicates |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %.3f | %d | %d | %d | %d |\n",
			r.Scenario, r.Events, r.FirstAcc, r.LastAcc, r.MeanAcc,
			r.Transactions, r.Deliveries, r.Dropped, r.Duplicated)
	}
	return b.String()
}
