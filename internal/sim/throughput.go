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
// experiment: 32 tiny FMNIST-clustered lines through the sweep scheduler, so
// job dispatch, requeueing and settling — not training time — dominate the
// wall clock. It returns each line's final-round mean trained-model
// accuracy, in line order.
//
// Every accuracy is a pure function of (preset, seed, line index):
// TestExperimentsGolden pins the returned values across worker counts,
// turning "scheduling never changes results" into a tier-1 invariant
// measured on a real grid rather than a fake engine.
func ThroughputGrid(ctx context.Context, env Env, p Preset, seed int64) ([]float64, error) {
	const n = 32
	rounds := 6
	if p == Full {
		rounds = 12
	}
	lines := make([]line, n)
	for i := range lines {
		lines[i] = line{name: fmt.Sprintf("throughput-%04d", i), open: func(env Env, _ io.Reader) (engine.Engine, error) {
			fed := dataset.FMNISTClustered(dataset.FMNISTConfig{
				Seed:           seed + int64(i),
				Clients:        8,
				TrainPerClient: 30,
				TestPerClient:  10,
			})
			return core.NewSimulation(fed, core.Config{
				Rounds:          rounds,
				ClientsPerRound: 3,
				Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, MaxBatches: 3},
				Arch:            nn.Arch{In: fed.InputDim, Hidden: []int{16}, Out: fed.NumClasses},
				Selector:        tipselect.AccuracyWalk{Alpha: 10},
				Workers:         env.Pool.Size(),
				Pool:            env.Pool,
				Seed:            seed + int64(i),
			})
		}}
	}
	// No grid directory: these lines exist to time the scheduler, and
	// checkpoint I/O would contaminate that. They are cheap to recompute.
	engines, err := sweep(ctx, Env{Pool: env.Pool}, lines)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, eng := range engines {
		res := eng.(*core.Simulation).Results()
		out[i] = res[len(res)-1].MeanTrainedAcc()
	}
	return out, nil
}

func renderThroughput(accs []float64) string {
	return fmt.Sprintf("### Scheduler throughput grid: %d cells through the sweep scheduler\n\n"+
		"| first acc | last acc | mean acc |\n|---|---|---|\n| %.3f | %.3f | %.3f |\n",
		len(accs), accs[0], accs[len(accs)-1], mathx.Mean(accs))
}
