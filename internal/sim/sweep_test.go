package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
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

// tinyConfig is a small, fast DAG simulation config for sweep tests; the
// same (config, seed) is used for swept and unswept runs, so their
// checkpoint bytes must match exactly.
func tinyConfig(env Env, i int, seed int64) (*dataset.Federation, core.Config) {
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

// countedSim is a round engine that reports every round it runs. It is
// still a Snapshotter, so a sweep checkpoints and resumes it as it does the
// bare engine — which a watcher would prevent.
type countedSim struct {
	*core.Simulation
	onRound func()
}

func (c countedSim) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	res, done, err := c.Simulation.Step(ctx)
	if res != nil {
		c.onRound()
	}
	return res, done, err
}

// tinyLines declares n independent DAG lines; onRound, when non-nil, counts
// every round any of them runs.
func tinyLines(n int, seed int64, onRound func()) []line {
	lines := make([]line, n)
	for i := range lines {
		lines[i] = line{name: fmt.Sprintf("tiny-%02d", i), open: func(env Env, ckpt io.Reader) (engine.Engine, error) {
			fed, cfg := tinyConfig(env, i, seed)
			var sim *core.Simulation
			var err error
			if ckpt != nil {
				sim, err = core.ResumeSimulation(fed, cfg, ckpt)
			} else {
				sim, err = core.NewSimulation(fed, cfg)
			}
			if err != nil || onRound == nil {
				return sim, err
			}
			return countedSim{sim, onRound}, nil
		}}
	}
	return lines
}

func checkpointBytes(t *testing.T, eng engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.(engine.Snapshotter).Checkpoint().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyReference is the unswept reference: each tiny line's engine driven
// directly with engine.Run, in turn, on a budget of its own.
func tinyReference(t *testing.T, n int, seed int64) [][]byte {
	t.Helper()
	env := Env{Pool: par.NewBudget(2)}
	ref := make([][]byte, n)
	for i := range ref {
		fed, cfg := tinyConfig(env, i, seed)
		sim, err := core.NewSimulation(fed, cfg)
		if err == nil {
			_, err = engine.Run(context.Background(), sim)
		}
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = checkpointBytes(t, sim)
	}
	return ref
}

func compareToReference(t *testing.T, engines []engine.Engine, ref [][]byte) {
	t.Helper()
	for i := range ref {
		if got := checkpointBytes(t, engines[i]); !bytes.Equal(got, ref[i]) {
			t.Errorf("line %d: swept checkpoint differs from the unswept run's (%d vs %d bytes)",
				i, len(got), len(ref[i]))
		}
	}
}

// TestSchedulerWorkerInvariance is the sweep's bit-identity guarantee: lines
// swept on a one-slot or a two-slot budget end in checkpoints byte-identical
// to the same engines driven directly with engine.Run. (Quanta and
// priorities are the scheduler's own test, in internal/engine.)
func TestSchedulerWorkerInvariance(t *testing.T) {
	t.Parallel()
	const n = 4
	seed := int64(77)
	ref := tinyReference(t, n, seed)
	// One slot runs the lines strictly in turn on the calling goroutine.
	for _, v := range []struct {
		name  string
		slots int
	}{{"workers=1", 1}, {"workers=pool", 2}} {
		t.Run(v.name, func(t *testing.T) {
			engines, err := sweep(context.Background(), Env{Pool: par.NewBudget(v.slots)}, tinyLines(n, seed, nil))
			if err != nil {
				t.Fatal(err)
			}
			compareToReference(t, engines, ref)
		})
	}
}

// TestConcurrentGridsShareNothing: two sweeps with different Envs — budgets
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
	engines := make([][]engine.Engine, len(grids))
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for g, grid := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engines[g], errs[g] = sweep(context.Background(), grid.env, tinyLines(n, grid.seed, nil))
		}()
	}
	wg.Wait()
	for g, grid := range grids {
		if errs[g] != nil {
			t.Fatalf("grid %d: %v", g, errs[g])
		}
		compareToReference(t, engines[g], tinyReference(t, n, grid.seed))
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

// TestSweepCrashResume: cancel a checkpointing sweep mid-flight, rerun it on
// the same directory, and the rerun (a) resumes instead of restarting —
// strictly fewer rounds execute than a full sweep — and (b) still produces
// results byte-identical to an uninterrupted run.
func TestSweepCrashResume(t *testing.T) {
	t.Parallel()
	// Past the first line's end and the second line's first checkpoint.
	testSweepCrashResume(t, 3, 6+checkpointEvery)
}

// TestSweepCrashResumeLarge is the nightly large-grid smoke (set
// SPECDAG_LARGE_GRID=1): the same crash-and-resume contract over a sweep an
// order of magnitude wider, canceled halfway through.
func TestSweepCrashResumeLarge(t *testing.T) {
	if os.Getenv("SPECDAG_LARGE_GRID") == "" {
		t.Skip("set SPECDAG_LARGE_GRID=1 to run the large grid smoke")
	}
	testSweepCrashResume(t, 24, 24*6/2)
}

func testSweepCrashResume(t *testing.T, n, cancelAfter int) {
	seed := int64(99)
	totalRounds := n * 6
	// A one-slot budget: lines run one after the other, so the cancellation
	// lands with whole lines finished and whole lines untouched.
	env := Env{Pool: par.NewBudget(1)}
	ckpt := Env{Pool: env.Pool, GridDir: t.TempDir()}

	// Crash run: cancel the sweep after cancelAfter completed rounds.
	var crashed atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := sweep(ctx, ckpt, tinyLines(n, seed, func() {
		if crashed.Add(1) == int64(cancelAfter) {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: err = %v, want context.Canceled in the chain", err)
	}

	// Resume run: same lines, same directory. It must complete while
	// executing strictly fewer rounds than a from-scratch sweep would.
	var resumed atomic.Int64
	got, err := sweep(context.Background(), ckpt, tinyLines(n, seed, func() { resumed.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if r := resumed.Load(); r >= int64(totalRounds) {
		t.Fatalf("resume executed %d rounds, want < %d (it restarted instead of resuming)", r, totalRounds)
	}

	// And the resumed sweep's results are byte-identical to an
	// uninterrupted sweep without any checkpoint directory.
	want, err := sweep(context.Background(), env, tinyLines(n, seed, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(checkpointBytes(t, got[i]), checkpointBytes(t, want[i])) {
			t.Errorf("line %d: resumed checkpoint differs from uninterrupted run", i)
		}
	}
}

// TestSweepRestartsFromUnusableCheckpoint: a grid directory holding a
// truncated checkpoint under one line's name and another seed's checkpoint
// under a second's. Neither line can resume from its file, so both restart
// — every round runs — and end byte-identical to a sweep with no directory.
func TestSweepRestartsFromUnusableCheckpoint(t *testing.T) {
	t.Parallel()
	const n = 2
	seed := int64(41)
	ref := tinyReference(t, n, seed)
	env := Env{Pool: par.NewBudget(2)}
	other, err := sweep(context.Background(), env, tinyLines(n, seed+100, nil))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lines := tinyLines(n, seed, nil)
	for i, b := range [][]byte{ref[0][:len(ref[0])/2], checkpointBytes(t, other[1])} {
		if err := os.WriteFile(lines[i].checkpointPath(dir), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var rounds atomic.Int64
	got, err := sweep(context.Background(), Env{Pool: env.Pool, GridDir: dir}, tinyLines(n, seed, func() { rounds.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if r := rounds.Load(); r != n*6 {
		t.Errorf("sweep ran %d rounds, want all %d", r, n*6)
	}
	compareToReference(t, got, ref)
}

// TestSweepResumesFromHistory is TestSweepCrashResume's contract where the
// figures live: a sweep canceled mid-flight and rerun on the
// same GridDir resumes its DAG lines — strictly fewer rounds execute — and
// the curves read off the resumed engines equal an uninterrupted sweep's,
// rounds before the checkpoint included (a curve collected by a hook would
// miss them). A watched line in the same sweep leaves no checkpoint and
// restarts; a baseline line next to them neither checkpoints nor fails.
func TestSweepResumesFromHistory(t *testing.T) {
	t.Parallel()
	const seed = 5
	spec := FMNISTSpec(Quick, seed)
	rounds := Quick.Rounds()
	names := []string{"resume-a", "resume-b", "resume-fedavg", "resume-watched"}
	const watchedLine = 3

	// declare builds the sweep under test. openedAt records the round each
	// round engine stood at when its line opened (0 = fresh), onWatch sees
	// the watched line's rounds.
	declare := func(openedAt []int, onWatch func()) []line {
		lines := []line{
			dagLine(names[0], spec, Quick, tipselect.AccuracyWalk{Alpha: 1}, seed+1),
			dagLine(names[1], spec, Quick, tipselect.AccuracyWalk{Alpha: 10}, seed+2),
			fedLine(names[2], spec, Quick, 0, seed+3),
			dagLine(names[3], spec, Quick, tipselect.AccuracyWalk{Alpha: 10}, seed+4),
		}
		lines[watchedLine].watch = func(engine.Engine, engine.RoundEvent) { onWatch() }
		for i := range lines {
			open := lines[i].open
			lines[i].open = func(env Env, ckpt io.Reader) (engine.Engine, error) {
				eng, err := open(env, ckpt)
				if sim, ok := eng.(*core.Simulation); ok && err == nil {
					openedAt[i] = sim.Round()
				}
				return eng, err
			}
		}
		return lines
	}
	curves := func(engines []engine.Engine) [][][]float64 {
		out := make([][][]float64, len(engines))
		for i, eng := range engines {
			out[i] = accLossCurve(names[i], eng).Series.Rows
		}
		return out
	}

	want, err := sweep(context.Background(), Env{Pool: par.NewBudget(2)}, declare(make([]int, len(names)), func() {}))
	if err != nil {
		t.Fatal(err)
	}

	// Crash run, on one slot so the lines advance in turn: cancel once the
	// watched line is halfway, which puts every line past its first
	// periodic checkpoint.
	env := Env{Pool: par.NewBudget(1), GridDir: t.TempDir()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err = sweep(ctx, env, declare(make([]int, len(names)), func() {
		if seen++; seen == rounds/2 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: err = %v, want context.Canceled in the chain", err)
	}

	// Rerun on the same directory.
	openedAt := make([]int, len(names))
	seen = 0
	got, err := sweep(context.Background(), env, declare(openedAt, func() { seen++ }))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if openedAt[i] == 0 {
			t.Errorf("%s restarted from round 0 instead of resuming", names[i])
		}
	}
	if openedAt[watchedLine] != 0 || seen != rounds {
		t.Errorf("%s opened at round %d and its watcher saw %d rounds, want a restart that sees all %d",
			names[watchedLine], openedAt[watchedLine], seen, rounds)
	}
	gotCurves, wantCurves := curves(got), curves(want)
	if !reflect.DeepEqual(gotCurves, wantCurves) {
		t.Errorf("resumed sweep's curves differ from the uninterrupted sweep's:\n got %v\nwant %v", gotCurves, wantCurves)
	}
	for i, rows := range gotCurves {
		if len(rows) != rounds {
			t.Errorf("%s: curve has %d rounds, want %d", names[i], len(rows), rounds)
		}
	}

	// Only the unwatched round engines have anything on disk.
	files, err := os.ReadDir(env.GridDir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, f := range files {
		left = append(left, f.Name())
	}
	if want := []string{names[0] + ".sdc", names[1] + ".sdc"}; !slices.Equal(left, want) {
		t.Errorf("grid directory holds %v, want %v", left, want)
	}
}
