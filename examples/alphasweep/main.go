// Alphasweep: explore the specialization-generalization trade-off of the
// accuracy-aware random walk by sweeping the α parameter (paper §5.3.1).
//
// High α makes the walk nearly deterministic (strong specialization: many
// small, pure communities); low α approaches a uniform walk (one generalized
// model, low modularity).
//
// The four runs share one worker pool: each simulation's round fan-out
// draws from the same budget, so the sweep saturates the machine without
// oversubscribing it — the same mechanism cmd/experiments uses at scale.
//
//	go run ./examples/alphasweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	specdag "github.com/specdag/specdag"
)

func main() {
	rounds := 30
	if os.Getenv("SPECDAG_EXAMPLES_FAST") != "" {
		rounds = 8 // CI smoke mode: same program, fewer rounds
	}
	pool := specdag.NewWorkerPool(0) // one budget for the whole sweep

	fmt.Println("alpha | pureness | modularity | communities | misclassification | final acc")
	fmt.Println("------|----------|------------|-------------|-------------------|----------")

	for _, alpha := range []float64{0.1, 1, 10, 100} {
		pureness, modularity, comms, mis, acc := runOnce(alpha, rounds, pool)
		fmt.Printf("%5g | %8.3f | %10.3f | %11d | %17.3f | %.3f\n",
			alpha, pureness, modularity, comms, mis, acc)
	}
	fmt.Println("\nThe paper's conclusion (Fig. 5): a medium alpha (10) balances pure")
	fmt.Println("approvals and a community count matching the true clusters; alpha=1")
	fmt.Println("under-specializes and alpha=100 over-fragments the network.")
}

func runOnce(alpha float64, rounds int, pool *specdag.WorkerPool) (pureness, modularity float64, communities int, misclassification, finalAcc float64) {
	fed := specdag.FMNISTClustered(specdag.FMNISTConfig{
		Clients:        30,
		TrainPerClient: 60,
		TestPerClient:  15,
		NoiseStd:       2.5,
		Seed:           7,
	})
	sim, err := specdag.NewSimulation(fed, specdag.Config{
		Rounds:          rounds,
		ClientsPerRound: 10,
		Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Selector:        specdag.AccuracyWalk{Alpha: alpha},
		Pool:            pool,
		Seed:            8,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := specdag.Run(context.Background(), sim); err != nil {
		log.Fatal(err)
	}
	results := sim.Results()

	g := specdag.BuildClientGraph(sim.DAG())
	part := specdag.Louvain(g, 9)
	last := results[len(results)-1]
	return specdag.ApprovalPureness(sim.DAG(), fed.ClusterOf()),
		specdag.Modularity(g, part),
		specdag.NumCommunities(part),
		specdag.Misclassification(part, fed.ClusterOf()),
		last.MeanTrainedAcc()
}
