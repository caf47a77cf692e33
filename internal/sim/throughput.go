package sim

import (
	"context"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
)

// ThroughputGrid is the scheduler stress sweep behind the sched-grid
// experiment: 32 tiny FMNIST-clustered cells with mixed priorities submitted
// to the sweep scheduler, so job dispatch, requeueing and settling — not
// training time — dominate the wall clock. It returns each cell's
// final-round mean trained-model accuracy, in cell order.
//
// Every accuracy is a pure function of (preset, seed, cell index):
// TestExperimentsGolden pins the returned values across worker counts,
// turning "scheduling never changes results" into a tier-1 invariant
// measured on a real grid rather than a fake engine.
func ThroughputGrid(ctx context.Context, env Env, p Preset, seed int64) ([]float64, error) {
	const n = 32
	rounds := 6
	if p == Full {
		rounds = 12
	}
	out := make([]float64, n)
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Name: fmt.Sprintf("throughput-%04d", i),
			// Mixed priorities exercise the aging-ordered pick path; results
			// are priority-invariant (TestSchedulerWorkerInvariance).
			Priority: i % 3,
			// Snapshot off: these cells exist to measure scheduler overhead,
			// and checkpoint I/O (if the Env names a grid directory) would
			// contaminate the timing. Cells are trivially recomputable.
			Build: func(env Env, _ io.Reader) (engine.Engine, []engine.Option, error) {
				fed := dataset.FMNISTClustered(dataset.FMNISTConfig{
					Seed:           seed + int64(i),
					Clients:        8,
					TrainPerClient: 30,
					TestPerClient:  10,
				})
				sim, err := core.NewSimulation(fed, core.Config{
					Rounds:          rounds,
					ClientsPerRound: 3,
					Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, MaxBatches: 3},
					Arch:            nn.Arch{In: fed.InputDim, Hidden: []int{16}, Out: fed.NumClasses},
					Selector:        tipselect.AccuracyWalk{Alpha: 10},
					Workers:         env.Pool.Size(),
					Pool:            env.Pool,
					Seed:            seed + int64(i),
				})
				if err != nil {
					return nil, nil, err
				}
				return sim, nil, nil
			},
			Finish: func(eng engine.Engine) error {
				res := eng.(*core.Simulation).Results()
				out[i] = res[len(res)-1].MeanTrainedAcc()
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return out, nil
}

func renderThroughput(accs []float64) string {
	return fmt.Sprintf("### Scheduler throughput grid: %d cells through the sweep scheduler\n\n"+
		"| first acc | last acc | mean acc |\n|---|---|---|\n| %.3f | %.3f | %.3f |\n",
		len(accs), accs[0], accs[len(accs)-1], mathx.Mean(accs))
}
