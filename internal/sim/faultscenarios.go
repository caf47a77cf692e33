package sim

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/faults"
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
	names := FaultScenarioNames()
	rows := make([]FaultRow, len(names))
	cells := make([]Cell, len(names))
	for i := range names {
		i, name := i, names[i]
		var accs []float64
		cells[i] = Cell{
			// No Snapshot: the row needs the full per-event accuracy trace,
			// which hooks cannot replay from a checkpoint. Cells recompute on
			// grid resume, which is safe because every cell is deterministic.
			Name: "faults-" + name,
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				spec := FMNISTSpec(p, seed)
				fc, err := FaultScenario(name, duration, 0.5)
				if err != nil {
					return nil, nil, err
				}
				cfg := spec.AsyncDAGConfig(env, duration, 1, 8, 0, spec.Selector, seed+int64(i))
				cfg.Faults = fc
				a, err := core.NewAsyncSimulation(spec.Fed, cfg)
				if err != nil {
					return nil, nil, err
				}
				return a, []engine.Option{engine.WithHooks(engine.Hooks{
					OnRound: func(ev engine.RoundEvent) {
						accs = append(accs, ev.Detail.(*core.AsyncEvent).TrainedAcc)
					},
				})}, nil
			},
			Finish: func(eng engine.Engine) error {
				if len(accs) == 0 {
					return fmt.Errorf("fault scenario %q produced no events", name)
				}
				res := eng.(*core.AsyncSimulation).Result()
				sum := 0.0
				for _, v := range accs {
					sum += v
				}
				rows[i] = FaultRow{
					Scenario:     name,
					Events:       len(accs),
					FirstAcc:     accs[0],
					LastAcc:      accs[len(accs)-1],
					MeanAcc:      sum / float64(len(accs)),
					Transactions: res.Transactions,
					Deliveries:   res.Deliveries,
					Dropped:      res.DroppedDeliveries,
					Duplicated:   res.DuplicatedDeliveries,
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
