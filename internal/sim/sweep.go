package sim

import (
	"context"
	"fmt"
	"io"

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

// sweep runs the lines as one grid on env's budget and returns their
// finished engines in line order.
func sweep(ctx context.Context, env Env, lines []line) ([]engine.Engine, error) {
	engines := make([]engine.Engine, len(lines))
	cells := make([]Cell, len(lines))
	for i, l := range lines {
		cells[i] = Cell{
			Name:     l.name,
			Snapshot: l.watch == nil,
			Build: func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error) {
				eng, err := l.open(env, ckpt)
				if err != nil {
					return nil, nil, err
				}
				if l.watch == nil {
					return eng, nil, nil
				}
				return eng, []engine.Option{engine.WithHooks(engine.Hooks{
					OnRound: func(ev engine.RoundEvent) { l.watch(eng, ev) },
				})}, nil
			},
			Finish: func(eng engine.Engine) error {
				engines[i] = eng
				return nil
			},
		}
	}
	if err := RunGrid(ctx, env, cells, GridConfig{}); err != nil {
		return nil, err
	}
	return engines, nil
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
