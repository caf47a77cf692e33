package sim

import (
	"context"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/metrics"
)

// Fig9Group is one box of Fig. 9: the accuracy distribution over the clients
// selected in a group of five consecutive rounds.
type Fig9Group struct {
	StartRound int
	Stats      metrics.BoxStats
}

// Fig9Result compares FedAvg's aggregated-model accuracies against the
// DAG's locally trained model accuracies on one dataset.
type Fig9Result struct {
	Dataset string
	FedAvg  []Fig9Group
	DAG     []Fig9Group
}

// groupByFives folds per-round client accuracies into five-round box groups,
// the aggregation both halves of Fig. 9 share.
func groupByFives(perRound [][]float64) []Fig9Group {
	var groups []Fig9Group
	var accs []float64
	start := 0
	for r, roundAccs := range perRound {
		accs = append(accs, roundAccs...)
		if (r+1)%5 == 0 || r == len(perRound)-1 {
			groups = append(groups, Fig9Group{StartRound: start, Stats: metrics.NewBoxStats(accs)})
			accs = nil
			start = r + 1
		}
	}
	return groups
}

// runFL builds a FedAvg/FedProx/gossip-shaped engine and drives it through
// the unified run API, returning the result.
func runFL(ctx context.Context, eng interface {
	engine.Engine
	Result() *fl.Result
}) (*fl.Result, error) {
	if _, err := engine.Run(ctx, eng); err != nil {
		return nil, err
	}
	return eng.Result(), nil
}

// Figure9 reproduces Fig. 9: per-client accuracy distributions, grouped
// over five consecutive rounds, FedAvg vs the Specializing DAG, for all
// three datasets. The six underlying runs (three datasets × two algorithms)
// are a flat grid of independent cells on the shared scheduler.
func Figure9(ctx context.Context, env Env, p Preset, seed int64) ([]Fig9Result, error) {
	specs := []Spec{FMNISTSpec(p, seed), PoetsSpec(p, seed+1), CIFARSpec(p, seed+2)}
	out := make([]Fig9Result, len(specs))
	cells := make([]Cell, 0, 2*len(specs))
	for i := range specs {
		i, spec := i, specs[i]
		out[i].Dataset = spec.Name
		cells = append(cells, Cell{
			Name: "fig9-fedavg-" + spec.Name,
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				fedEng, err := fl.NewFederated(spec.Fed, spec.FLConfig(env, p, 0, seed+int64(20+i)))
				if err != nil {
					return nil, nil, err
				}
				return fedEng, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				flRes := eng.(*fl.Federated).Result()
				perRound := make([][]float64, len(flRes.Rounds))
				for r, rr := range flRes.Rounds {
					perRound[r] = rr.Accs
				}
				out[i].FedAvg = groupByFives(perRound)
				return nil
			},
		}, Cell{
			Name:     "fig9-dag-" + spec.Name,
			Snapshot: true,
			Build: func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error) {
				sim, err := buildDAG(spec, spec.DAGConfig(env, p, spec.Selector, seed+int64(30+i)), ckpt)
				if err != nil {
					return nil, nil, err
				}
				return sim, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				dagRounds := eng.(*core.Simulation).Results()
				perRound := make([][]float64, len(dagRounds))
				for r, rr := range dagRounds {
					perRound[r] = rr.TrainedAcc
				}
				out[i].DAG = groupByFives(perRound)
				return nil
			},
		})
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig1011Curve is one algorithm's mean accuracy and loss trajectory on the
// FedProx synthetic dataset (Figs. 10 and 11 share the same runs).
type Fig1011Curve struct {
	Algorithm string
	Series    *metrics.Series // cols: round, acc, loss
}

// dagCurveCell builds the grid cell for the Specializing DAG half of an
// algorithm comparison: it runs the DAG on spec and streams its per-round
// mean accuracy/loss curve into *out. The curve rides live round events, so
// the cell restarts rather than resumes after a crash (Snapshot off).
func dagCurveCell(p Preset, spec Spec, seed int64, name string, out *Fig1011Curve) Cell {
	series := metrics.NewSeries("DAG", "round", "acc", "loss")
	return Cell{
		Name: name,
		Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
			sim, err := core.NewSimulation(spec.Fed, spec.DAGConfig(env, p, spec.Selector, seed))
			if err != nil {
				return nil, nil, err
			}
			return sim, []engine.Option{engine.WithHooks(engine.Hooks{
				OnRound: func(ev engine.RoundEvent) {
					series.Add(float64(ev.Round+1), ev.MeanAcc, ev.MeanLoss)
				},
			})}, nil
		},
		Finish: func(engine.Engine) error {
			*out = Fig1011Curve{Algorithm: "DAG", Series: series}
			return nil
		},
	}
}

// Figure10And11 reproduces Figs. 10 and 11: average accuracy and loss per
// round for FedAvg, FedProx and the Specializing DAG on Synthetic(0.5, 0.5)
// with 30 clients, 10 active per round. The three algorithm runs are
// independent cells on the shared scheduler.
func Figure10And11(ctx context.Context, env Env, p Preset, seed int64) ([]Fig1011Curve, error) {
	spec := FedProxSpec(p, seed)

	algos := []struct {
		name   string
		proxMu float64
	}{{"FedAvg", 0}, {"FedProx", 1.0}, {"DAG", 0}}

	out := make([]Fig1011Curve, len(algos))
	cells := make([]Cell, len(algos))
	for i := range algos {
		i, algo := i, algos[i]
		if algo.name == "DAG" {
			cells[i] = dagCurveCell(p, spec, seed+41, "fig10_11-dag", &out[i])
			continue
		}
		series := metrics.NewSeries(algo.name, "round", "acc", "loss")
		cells[i] = Cell{
			Name: "fig10_11-" + algo.name,
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				fedEng, err := fl.NewFederated(spec.Fed, spec.FLConfig(env, p, algo.proxMu, seed+40))
				if err != nil {
					return nil, nil, err
				}
				return fedEng, []engine.Option{engine.WithHooks(engine.Hooks{
					OnRound: func(ev engine.RoundEvent) {
						series.Add(float64(ev.Round+1), ev.MeanAcc, ev.MeanLoss)
					},
				})}, nil
			},
			Finish: func(engine.Engine) error {
				out[i] = Fig1011Curve{Algorithm: algo.name, Series: series}
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}
