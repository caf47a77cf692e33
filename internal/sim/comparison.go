package sim

import (
	"context"

	"github.com/specdag/specdag/internal/core"
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

// Figure9 reproduces Fig. 9: per-client accuracy distributions, grouped
// over five consecutive rounds, FedAvg vs the Specializing DAG, for all
// three datasets. The six underlying runs (three datasets × two algorithms)
// are one flat sweep.
func Figure9(ctx context.Context, env Env, p Preset, seed int64) ([]Fig9Result, error) {
	specs := []Spec{FMNISTSpec(p, seed), PoetsSpec(p, seed+1), CIFARSpec(p, seed+2)}
	lines := make([]line, 0, 2*len(specs))
	for i, spec := range specs {
		lines = append(lines,
			fedLine("fig9-fedavg-"+spec.Name, spec, p, 0, seed+int64(20+i)),
			dagLine("fig9-dag-"+spec.Name, spec, p, spec.Selector, seed+int64(30+i)))
	}
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Result, len(specs))
	for i, spec := range specs {
		var fedAccs, dagAccs [][]float64
		for _, rr := range engines[2*i].(*fl.Federated).Result().Rounds {
			fedAccs = append(fedAccs, rr.Accs)
		}
		for _, rr := range engines[2*i+1].(*core.Simulation).Results() {
			dagAccs = append(dagAccs, rr.TrainedAcc)
		}
		out[i] = Fig9Result{Dataset: spec.Name, FedAvg: groupByFives(fedAccs), DAG: groupByFives(dagAccs)}
	}
	return out, nil
}

// Figure10And11 reproduces Figs. 10 and 11 (two views of the same runs):
// average accuracy and loss per round for FedAvg, FedProx and the
// Specializing DAG on Synthetic(0.5, 0.5) with 30 clients, 10 active per
// round.
func Figure10And11(ctx context.Context, env Env, p Preset, seed int64) ([]Curve, error) {
	spec := FedProxSpec(p, seed)
	return accLossCurves(ctx, env, []string{"FedAvg", "FedProx", "DAG"}, []line{
		fedLine("fig10_11-FedAvg", spec, p, 0, seed+40),
		fedLine("fig10_11-FedProx", spec, p, 1.0, seed+40),
		dagLine("fig10_11-dag", spec, p, spec.Selector, seed+41),
	})
}
