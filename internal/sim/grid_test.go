package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// tinyGridConfig is a small, fast DAG simulation config for grid tests; the
// same (config, seed) is used for scheduled and unscheduled runs so their
// checkpoint bytes must match exactly.
func tinyGridConfig(env Env, i int, seed int64) (*dataset.Federation, core.Config) {
	fed := dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients:        8,
		TrainPerClient: 30,
		TestPerClient:  10,
		Seed:           seed + int64(i),
	})
	cfg := core.Config{
		Rounds:          6,
		ClientsPerRound: 3,
		Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            nn.Arch{In: 64, Hidden: []int{16}, Out: 10},
		Selector:        tipselect.AccuracyWalk{Alpha: 10},
		Seed:            seed + int64(i),
		Workers:         env.Pool.Size(),
		Pool:            env.Pool,
	}
	return fed, cfg
}

// tinyGridCells builds n independent DAG cells writing their finished
// simulations into sims. onRound, when non-nil, observes every completed
// round across all cells.
func tinyGridCells(n int, seed int64, prios []int, sims []*core.Simulation, onRound func()) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		prio := 0
		if prios != nil {
			prio = prios[i]
		}
		cells[i] = Cell{
			Name:     fmt.Sprintf("tiny-%02d", i),
			Priority: prio,
			Snapshot: true,
			Build: func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error) {
				fed, cfg := tinyGridConfig(env, i, seed)
				var sim *core.Simulation
				var err error
				if ckpt != nil {
					sim, err = core.ResumeSimulation(fed, cfg, ckpt)
				} else {
					sim, err = core.NewSimulation(fed, cfg)
				}
				if err != nil {
					return nil, nil, err
				}
				var opts []engine.Option
				if onRound != nil {
					opts = append(opts, engine.WithHooks(engine.Hooks{
						OnRound: func(engine.RoundEvent) { onRound() },
					}))
				}
				return sim, opts, nil
			},
			Finish: func(eng engine.Engine) error {
				sims[i] = eng.(*core.Simulation)
				return nil
			},
		}
	}
	return cells
}

func checkpointBytes(t *testing.T, sim *core.Simulation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSchedulerWorkerInvariance is the grid's bit-identity guarantee: cells
// run through the scheduler — for every worker count, quantum and priority
// order — produce byte-identical checkpoints to the same engines driven
// directly with engine.Run. Scheduling decides only when a cell's units
// execute, never what they compute.
func TestSchedulerWorkerInvariance(t *testing.T) {
	t.Parallel()
	const n = 4
	seed := int64(77)
	ref := tinyGridReference(t, n, seed)

	// The worker bound is the Env's budget: one slot runs the cells strictly
	// sequentially on the calling goroutine.
	variants := []struct {
		name  string
		slots int
		cfg   GridConfig
		prios []int
	}{
		{"workers=1", 1, GridConfig{}, nil},
		{"workers=pool", 2, GridConfig{}, nil},
		{"quantum=1", 2, GridConfig{Quantum: 1}, nil},
		{"priorities-reversed", 2, GridConfig{Quantum: 1}, []int{0, 1, 2, 3}},
		{"priorities-mixed", 2, GridConfig{Quantum: 2}, []int{5, 0, 5, 3}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			env := Env{Pool: par.NewBudget(v.slots)}
			sims := make([]*core.Simulation, n)
			cells := tinyGridCells(n, seed, v.prios, sims, nil)
			if err := RunGrid(context.Background(), env, cells, v.cfg); err != nil {
				t.Fatal(err)
			}
			compareToReference(t, sims, ref)
		})
	}
}

// tinyGridReference is the unscheduled reference: each cell's engine driven
// directly with engine.Run, sequentially, on a budget of its own.
func tinyGridReference(t *testing.T, n int, seed int64) [][]byte {
	t.Helper()
	env := Env{Pool: par.NewBudget(2)}
	ref := make([][]byte, n)
	for i := 0; i < n; i++ {
		fed, cfg := tinyGridConfig(env, i, seed)
		sim, err := core.NewSimulation(fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Run(context.Background(), sim); err != nil {
			t.Fatal(err)
		}
		ref[i] = checkpointBytes(t, sim)
	}
	return ref
}

func compareToReference(t *testing.T, sims []*core.Simulation, ref [][]byte) {
	t.Helper()
	for i := range ref {
		if got := checkpointBytes(t, sims[i]); !bytes.Equal(got, ref[i]) {
			t.Errorf("cell %d: scheduled checkpoint differs from unscheduled run (%d vs %d bytes)",
				i, len(got), len(ref[i]))
		}
	}
}

// TestConcurrentGridsShareNothing: two grids with different Envs — budgets
// of different sizes, one checkpointing — run at the same time (the race
// detector watches), and each one's results equal its sequential run's.
func TestConcurrentGridsShareNothing(t *testing.T) {
	t.Parallel()
	const n = 3
	grids := []struct {
		env  Env
		seed int64
	}{
		{Env{Pool: par.NewBudget(1)}, 131},
		{Env{Pool: par.NewBudget(3), GridDir: t.TempDir()}, 257},
	}
	sims := make([][]*core.Simulation, len(grids))
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for g, grid := range grids {
		sims[g] = make([]*core.Simulation, n)
		cells := tinyGridCells(n, grid.seed, nil, sims[g], nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = RunGrid(context.Background(), grid.env, cells, GridConfig{Every: 2})
		}()
	}
	wg.Wait()
	for g, grid := range grids {
		if errs[g] != nil {
			t.Fatalf("grid %d: %v", g, errs[g])
		}
		compareToReference(t, sims[g], tinyGridReference(t, n, grid.seed))
		if grid.env.Pool.Peak() > grid.env.Pool.Size() || grid.env.Pool.InUse() != 0 {
			t.Errorf("grid %d: budget peak %d of %d, %d still in use", g,
				grid.env.Pool.Peak(), grid.env.Pool.Size(), grid.env.Pool.InUse())
		}
	}
	if files, err := os.ReadDir(grids[1].env.GridDir); err != nil || len(files) != n {
		t.Errorf("checkpointing grid left %d files (%v), want %d", len(files), err, n)
	}
	if grids[0].env.Pool.Peak() != 1 {
		t.Errorf("the one-slot grid borrowed from its neighbour: peak %d", grids[0].env.Pool.Peak())
	}
}

// TestGridCrashResume: cancel a checkpointing grid mid-flight, rerun it on
// the same directory, and the rerun (a) resumes instead of restarting —
// strictly fewer rounds execute than a full grid — and (b) still produces
// results byte-identical to an uninterrupted run.
func TestGridCrashResume(t *testing.T) {
	t.Parallel()
	testGridCrashResume(t, 3, 7)
}

// TestGridCrashResumeLarge is the nightly large-grid smoke (set
// SPECDAG_LARGE_GRID=1): the same crash-and-resume contract over a grid an
// order of magnitude wider, canceled halfway through.
func TestGridCrashResumeLarge(t *testing.T) {
	if os.Getenv("SPECDAG_LARGE_GRID") == "" {
		t.Skip("set SPECDAG_LARGE_GRID=1 to run the large grid smoke")
	}
	testGridCrashResume(t, 24, 24*6/2)
}

func testGridCrashResume(t *testing.T, n, cancelAfter int) {
	seed := int64(99)
	totalRounds := n * 6
	// A one-slot budget: cells run one after the other, so the cancellation
	// lands with whole cells finished and whole cells untouched.
	env := Env{Pool: par.NewBudget(1)}
	ckpt := Env{Pool: env.Pool, GridDir: t.TempDir()}

	// Crash run: cancel the grid after cancelAfter completed rounds; cells
	// checkpoint every round.
	var crashed atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sims := make([]*core.Simulation, n)
	cells := tinyGridCells(n, seed, nil, sims, func() {
		if crashed.Add(1) == int64(cancelAfter) {
			cancel()
		}
	})
	err := RunGrid(ctx, ckpt, cells, GridConfig{Every: 1})
	if err == nil {
		t.Fatal("canceled grid completed successfully")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}

	// Resume run: same grid, same directory. It must complete while
	// executing strictly fewer rounds than a from-scratch grid would.
	var resumed atomic.Int64
	sims2 := make([]*core.Simulation, n)
	cells2 := tinyGridCells(n, seed, nil, sims2, func() { resumed.Add(1) })
	if err := RunGrid(context.Background(), ckpt, cells2, GridConfig{Every: 1}); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Load(); got >= int64(totalRounds) {
		t.Fatalf("resume executed %d rounds, want < %d (it restarted instead of resuming)", got, totalRounds)
	}

	// And the resumed grid's results are byte-identical to an uninterrupted
	// run without any checkpoint directory.
	sims3 := make([]*core.Simulation, n)
	cells3 := tinyGridCells(n, seed, nil, sims3, nil)
	if err := RunGrid(context.Background(), env, cells3, GridConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := checkpointBytes(t, sims2[i])
		want := checkpointBytes(t, sims3[i])
		if !bytes.Equal(got, want) {
			t.Errorf("cell %d: resumed checkpoint differs from uninterrupted run", i)
		}
	}
}
