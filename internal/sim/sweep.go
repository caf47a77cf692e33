package sim

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/tipselect"
)

// line is one run of an experiment: a figure line, a table row, an ablation
// variant. Every runner in this package has the same shape — declare lines,
// sweep them, read the measurement off each finished engine's own history
// (Results, Result, DAG) — and that history travels in the checkpoint, so a
// line resumed after a crash reports the rounds before it too.
type line struct {
	// name is unique within the sweep and stable across reruns: it names
	// the line's checkpoint file in Env.GridDir.
	name string
	// open constructs the line's engine from the grid's env (budget filled
	// in), resuming from ckpt when the grid hands one down.
	open func(env Env, ckpt io.Reader) (engine.Engine, error)
	// watch, when set, sees every completed unit of the engine: for the
	// measurement that exists only while the run executes. A checkpoint
	// cannot replay what a watcher saw, so a watched line restarts where
	// the others resume.
	watch func(eng engine.Engine, ev engine.RoundEvent)
}

// checkpointEvery is the cadence, in engine units, of a line's checkpoints
// in the grid directory.
const checkpointEvery = 5

// sweep runs the lines as one grid on an engine.Scheduler drawing from env's
// budget — its size bounds the lines running at once, and a one-slot budget
// runs them strictly in turn on the calling goroutine — and returns their
// finished engines in line order. Each engine is opened on a scheduler
// worker at its line's first dispatch, so a wide grid costs closures up
// front, not live simulations.
//
// With a grid directory (env.GridDir), an unwatched line whose engine is an
// engine.Snapshotter checkpoints every checkpointEvery units, and once more
// after the grid drained, into the file its name gives. A rerun on the same
// directory resumes finished and in-flight lines instead of recomputing
// them; untouched lines open fresh.
//
// Results are bit-identical to driving each engine directly with engine.Run,
// for every budget: scheduling decides only when a line's units run. On
// cancellation sweep returns ctx.Err(), with unfinished lines stopped at unit
// boundaries; otherwise the first error in line order, wrapped with the
// line's name, once every line settled.
func sweep(ctx context.Context, env Env, lines []line) ([]engine.Engine, error) {
	env = env.withPool()
	if env.GridDir != "" {
		if err := os.MkdirAll(env.GridDir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: creating grid checkpoint dir: %w", err)
		}
	}
	sched := engine.NewScheduler(engine.SchedulerConfig{Pool: env.Pool})
	handles := make([]*engine.Handle, len(lines))
	engines := make([]engine.Engine, len(lines))
	for i, l := range lines {
		h, err := sched.Submit(engine.Job{
			Name: l.name,
			Build: func(context.Context) (engine.Engine, []engine.Option, error) {
				eng, opts, err := l.build(env)
				engines[i] = eng
				return eng, opts, err
			},
		})
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	if err := sched.Drain(ctx); err != nil {
		return nil, err
	}
	for i, l := range lines {
		if err := handles[i].Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
	}
	for i, l := range lines {
		snap, ok := engines[i].(engine.Snapshotter)
		if !ok || l.watch != nil || env.GridDir == "" {
			continue
		}
		// The final checkpoint carries the whole history, so a rerun
		// resumes this line finished.
		if err := engine.WriteAtomic(l.checkpointPath(env.GridDir), snap.Checkpoint()); err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
	}
	return engines, nil
}

// build opens the line's engine for a sweep on env, with the run options the
// line needs: its watcher's hook, or, with a grid directory, its
// checkpoints — resuming from the last one when it can.
func (l line) build(env Env) (engine.Engine, []engine.Option, error) {
	if l.watch != nil {
		eng, err := l.open(env, nil)
		if err != nil {
			return nil, nil, err
		}
		return eng, []engine.Option{engine.WithHooks(engine.Hooks{
			OnRound: func(ev engine.RoundEvent) { l.watch(eng, ev) },
		})}, nil
	}
	if env.GridDir == "" {
		eng, err := l.open(env, nil)
		return eng, nil, err
	}
	path := l.checkpointPath(env.GridDir)
	eng, err := l.resume(env, path)
	if err != nil {
		// No checkpoint, or one the line cannot resume from (a truncated
		// file, a changed config): the line restarts, and determinism makes
		// the restart produce identical results.
		eng, err = l.open(env, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	if _, ok := eng.(engine.Snapshotter); !ok {
		return eng, nil, nil
	}
	return eng, []engine.Option{engine.WithCheckpoints(checkpointEvery, func(c engine.Checkpoint) error {
		return engine.WriteAtomic(path, c)
	})}, nil
}

// resume opens the line's engine from the checkpoint at path.
func (l line) resume(env Env, path string) (engine.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return l.open(env, f)
}

// checkpointPath maps the line's name to its checkpoint file in dir,
// replacing characters that are meaningful to filesystems.
func (l line) checkpointPath(dir string) string {
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, l.name)
	return filepath.Join(dir, sanitized+".sdc")
}

// dagLine is a line running the round engine on spec: the preset's config
// for selector sel and seed, adjusted by tune.
func dagLine(name string, spec Spec, p Preset, sel tipselect.Selector, seed int64, tune ...func(*core.Config)) line {
	return line{name: name, open: func(env Env, ckpt io.Reader) (engine.Engine, error) {
		cfg := spec.DAGConfig(env, p, sel, seed)
		for _, t := range tune {
			t(&cfg)
		}
		if ckpt != nil {
			return core.ResumeSimulation(spec.Fed, cfg, ckpt)
		}
		return core.NewSimulation(spec.Fed, cfg)
	}}
}

// fedLine is a line running the FedAvg (proxMu 0) or FedProx baseline on
// spec. The baselines write no checkpoints; the line recomputes on resume.
func fedLine(name string, spec Spec, p Preset, proxMu float64, seed int64) line {
	return line{name: name, open: func(env Env, _ io.Reader) (engine.Engine, error) {
		return fl.NewFederated(spec.Fed, spec.FLConfig(env, p, proxMu, seed))
	}}
}

// Curve is one labeled line of a figure: a per-round trajectory of named
// columns.
type Curve struct {
	Label  string
	Series *metrics.Series
}

// accLossCurve reads a finished line's mean accuracy and loss per round
// (cols: round, acc, loss) — the trajectory of Figs. 6–8, 10 and 11 — off
// the round engine or a baseline.
func accLossCurve(label string, eng engine.Engine) Curve {
	series := metrics.NewSeries(label, "round", "acc", "loss")
	switch e := eng.(type) {
	case *core.Simulation:
		for r, rr := range e.Results() {
			series.Add(float64(r+1), rr.MeanTrainedAcc(), rr.MeanTrainedLoss())
		}
	case interface{ Result() *fl.Result }:
		for r, rr := range e.Result().Rounds {
			series.Add(float64(r+1), rr.MeanAcc, rr.MeanLoss)
		}
	default:
		panic(fmt.Sprintf("sim: no accuracy history on a %T", eng))
	}
	return Curve{Label: label, Series: series}
}

// accLossCurves sweeps the lines of an algorithm comparison and reads each
// one's accuracy and loss trajectory, labeled in line order.
func accLossCurves(ctx context.Context, env Env, labels []string, lines []line) ([]Curve, error) {
	engines, err := sweep(ctx, env, lines)
	if err != nil {
		return nil, err
	}
	out := make([]Curve, len(lines))
	for i, eng := range engines {
		out[i] = accLossCurve(labels[i], eng)
	}
	return out, nil
}
