package sim

import (
	"context"
	"errors"
	"io"
	"os"
	"reflect"
	"slices"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// TestSweepResumesFromHistory is TestGridCrashResume's contract one level
// up, where the figures live: a sweep canceled mid-flight and rerun on the
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
