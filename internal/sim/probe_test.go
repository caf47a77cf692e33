package sim

import (
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// TestProbeCIFARSignal measures the walk's discrimination signal on the
// CIFAR setup: after training, transactions issued by same-cluster clients
// must score visibly higher on a client's local test data than
// foreign-cluster transactions. This is the precondition for the approval
// pureness of Table 2.
func TestProbeCIFARSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is a diagnostic, skipped in -short")
	}
	spec := CIFARSpec(Quick, 1)
	cfg := spec.DAGConfig(Env{}, Quick, tipselect.AccuracyWalk{Alpha: 10}, 2)
	cfg.Rounds = 30
	sim, err := core.NewSimulation(spec.Fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for sim.Round() < cfg.Rounds {
		sim.RunRound()
	}

	truth := spec.Fed.ClusterOf()
	model := nn.New(spec.Arch, xrand.New(3))

	var sameSum, foreignSum float64
	var sameN, foreignN int
	for _, client := range spec.Fed.Clients[:8] {
		testX, testY := client.Test.X, client.Test.Y
		for _, tx := range sim.DAG().All() {
			if tx.IsGenesis() || tx.Round < 20 {
				continue // only mature models
			}
			model.SetParams(tx.Params)
			_, acc := model.Evaluate(testX, testY)
			if truth[tx.Issuer] == client.Cluster {
				sameSum += acc
				sameN++
			} else {
				foreignSum += acc
				foreignN++
			}
		}
	}
	if sameN == 0 || foreignN == 0 {
		t.Skip("no transactions to probe")
	}
	same := sameSum / float64(sameN)
	foreign := foreignSum / float64(foreignN)
	t.Logf("same-cluster mean acc %.3f (n=%d), foreign %.3f (n=%d), gap %.3f",
		same, sameN, foreign, foreignN, same-foreign)
	if same <= foreign {
		t.Errorf("no specialization signal: same-cluster models score no better than foreign ones")
	}
}
