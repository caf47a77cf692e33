package sim

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/specdag/specdag/internal/engine"
)

// Cell is one unit of a sweep grid: a figure line, a table row, an ablation
// variant. Cells are submitted to an engine.Scheduler as lazy jobs, so a
// 10,000-cell grid costs 10,000 closures up front, not 10,000 live
// simulations, and cells run whenever the scheduler's workers reach them.
type Cell struct {
	// Name labels the cell in errors and, sanitized, names its checkpoint
	// file — it must be unique within the grid and stable across reruns for
	// crash-resume to find the right checkpoint.
	Name string
	// Priority orders dispatch (larger first); ties run in submission
	// order. Results are bit-identical for any priority assignment — see
	// TestSchedulerWorkerInvariance.
	Priority int
	// Build constructs the cell's engine on a scheduler worker at first
	// dispatch. env is the grid's Env, budget filled in: the engine draws
	// from the pool its scheduler runs on. ckpt is non-nil when the grid
	// directory holds a checkpoint for this cell; Build should then resume
	// from it (falling back is handled by the grid: if Build errors on a
	// checkpoint, it is retried with ckpt == nil and the cell restarts from
	// scratch). Any returned options (hooks, probes) are applied to the
	// cell's run loop.
	Build func(env Env, ckpt io.Reader) (engine.Engine, []engine.Option, error)
	// Finish extracts the cell's results after its engine completed. Finish
	// calls run sequentially in cell order on RunGrid's goroutine, so they
	// may write shared state without locking.
	Finish func(eng engine.Engine) error
	// Snapshot enables per-cell checkpointing: when the grid has a
	// checkpoint directory and the engine is an engine.Snapshotter, the
	// cell checkpoints every GridConfig.Every units plus once on
	// completion, so a crashed grid rerun resumes finished and in-flight
	// cells instead of recomputing them. On an engine without checkpoint
	// support (the fl baselines) it is a no-op. Leave false where a resumed
	// run would miss something — hooks that observed the units before the
	// checkpoint, timings that mid-run I/O would contaminate — such cells
	// simply recompute on resume, which is safe because every cell is
	// deterministic.
	Snapshot bool
}

// GridConfig configures RunGrid.
type GridConfig struct {
	// Every is the checkpoint cadence in engine units; <= 0 selects 5.
	Every int
	// Quantum is the scheduler dispatch quantum in engine units; <= 0
	// selects the scheduler default.
	Quantum int
}

// RunGrid runs every cell to completion on an engine.Scheduler drawing from
// env's budget — its size bounds the cells running at once, and a one-slot
// budget runs them strictly sequentially on the calling goroutine — then
// runs the Finish callbacks sequentially in cell order.
// It replaces the naive per-sweep fan-out: cells become priority-ordered,
// pause-safe jobs, and with a checkpoint directory (env.GridDir) a mid-grid
// crash resumes instead of restarting — completed
// cells reload their final checkpoint, in-flight ones continue from their
// last unit boundary, and untouched ones build fresh.
//
// Results are bit-identical to driving each cell's engine directly with
// engine.Run, for every worker count and priority order: scheduling decides
// only when a cell's units run, and each cell's output is a pure function
// of its (config, seed).
//
// On context cancellation RunGrid returns ctx.Err() with unfinished cells
// stopped at unit boundaries; otherwise the first error in cell order is
// returned (wrapped with the cell name), after all cells have settled.
func RunGrid(ctx context.Context, env Env, cells []Cell, cfg GridConfig) error {
	env = env.withPool()
	dir := env.GridDir
	every := cfg.Every
	if every <= 0 {
		every = 5
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("sim: creating grid checkpoint dir: %w", err)
		}
	}
	sched := engine.NewScheduler(engine.SchedulerConfig{
		Pool:    env.Pool,
		Quantum: cfg.Quantum,
	})
	handles := make([]*engine.Handle, len(cells))
	engines := make([]engine.Engine, len(cells))
	for i := range cells {
		c := &cells[i]
		h, err := sched.Submit(engine.Job{
			Name:     c.Name,
			Priority: c.Priority,
			Build: func(context.Context) (engine.Engine, []engine.Option, error) {
				eng, opts, err := buildCell(c, env, every)
				if err != nil {
					return nil, nil, err
				}
				engines[i] = eng
				return eng, opts, nil
			},
		})
		if err != nil {
			return err
		}
		handles[i] = h
	}
	if err := sched.Drain(ctx); err != nil {
		return err
	}
	for i := range cells {
		if err := handles[i].Err(); err != nil {
			return fmt.Errorf("%s: %w", cells[i].Name, err)
		}
	}
	for i := range cells {
		c := &cells[i]
		if snap, ok := engines[i].(engine.Snapshotter); ok && c.Snapshot && dir != "" {
			// Final checkpoint: a rerun of the grid resumes this completed
			// cell instantly (the checkpoint carries the full history).
			if err := writeCellCheckpoint(dir, c.Name, snap); err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
		}
		if c.Finish != nil {
			if err := c.Finish(engines[i]); err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
		}
	}
	return nil
}

// buildCell resolves a cell into an engine plus options, handling the
// checkpoint life cycle: resume from an existing cell checkpoint when
// possible (restarting from scratch if the checkpoint is unreadable or
// stale), and install periodic checkpointing for the run ahead.
func buildCell(c *Cell, env Env, every int) (engine.Engine, []engine.Option, error) {
	dir := env.GridDir
	if c.Snapshot && dir != "" {
		path := cellCheckpointPath(dir, c.Name)
		if f, err := os.Open(path); err == nil {
			eng, opts, berr := c.Build(env, f)
			f.Close()
			if berr == nil {
				return eng, withCellCheckpoints(eng, opts, dir, c.Name, every), nil
			}
			// A checkpoint the cell cannot resume from (corrupted file,
			// changed config) is discarded; determinism makes the restart
			// produce identical results.
		}
	}
	eng, opts, err := c.Build(env, nil)
	if err != nil {
		return nil, nil, err
	}
	if c.Snapshot && dir != "" {
		opts = withCellCheckpoints(eng, opts, dir, c.Name, every)
	}
	return eng, opts, nil
}

// withCellCheckpoints adds the periodic checkpoint to a cell's options, for
// an engine that has checkpoints to write.
func withCellCheckpoints(eng engine.Engine, opts []engine.Option, dir, name string, every int) []engine.Option {
	if _, ok := eng.(engine.Snapshotter); !ok {
		return opts
	}
	return append(opts, engine.WithCheckpoints(every, func(int) (io.WriteCloser, error) {
		return engine.CreateAtomic(cellCheckpointPath(dir, name))
	}))
}

func writeCellCheckpoint(dir, name string, snap engine.Snapshotter) error {
	return engine.WriteAtomic(cellCheckpointPath(dir, name), func(w io.Writer) error {
		_, err := snap.WriteCheckpoint(w)
		return err
	})
}

// cellCheckpointPath maps a cell name to its checkpoint file, sanitizing
// characters that are meaningful to filesystems.
func cellCheckpointPath(dir, name string) string {
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
	return filepath.Join(dir, sanitized+".sdc")
}
