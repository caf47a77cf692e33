package specdag

// The unified streaming run API: one cancelable, observable, resumable
// engine loop behind every experiment.

import (
	"context"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/par"
)

// Engine is a resumable experiment stepper: one unit of work (a round or a
// client activation) per Step. Implementations in this library:
//
//   - *Simulation (NewSimulation): the synchronous Specializing DAG
//   - *AsyncSimulation (NewAsyncSimulation): the event-driven DAG
//   - *Federated (NewFederated): FedAvg / FedProx
//
// Any type with the same Step/Name methods plugs into Run, so downstream
// code can drive custom engines with the same machinery.
type Engine = engine.Engine

// RoundEvent reports one completed round (or, for the asynchronous engine,
// one client activation).
type RoundEvent = engine.RoundEvent

// PublishEvent reports one model update entering the DAG.
type PublishEvent = engine.PublishEvent

// ProbeEvent reports one mid-run metric probe (see WithProbe).
type ProbeEvent = engine.ProbeEvent

// Hooks receives typed progress events during Run; nil fields are skipped.
// Hooks run synchronously on Run's goroutine in strict unit order,
// regardless of the engine's internal worker count.
type Hooks = engine.Hooks

// RunOption configures Run.
type RunOption = engine.Option

// RunReport summarizes a Run: the engine's name, the number of completed
// units, and whether the engine reached its natural end (false after a
// cancellation or error).
type RunReport = engine.Report

// WorkerPool is a shared worker budget: a fixed number of concurrency slots
// that nested fan-outs (an experiment sweep running several engines, each
// fanning over its round's clients) draw from, so the whole tree never runs
// more goroutines than the pool's size. Hand one pool to related runs via
// the Pool field of Config/AsyncConfig/FedConfig.
type WorkerPool = par.Budget

// NewWorkerPool creates a shared worker budget with the given number of
// slots (size <= 0 selects the number of CPUs).
func NewWorkerPool(size int) *WorkerPool { return par.NewBudget(size) }

// Run drives an engine to completion under ctx — the single entry point
// behind every experiment in this library. Cancellation (ctx.Done, a
// deadline) takes effect at round/event granularity: Run returns ctx.Err()
// and the engine retains the partial results of the units completed so far
// (read them from the engine, e.g. sim.Results() or fedEngine.Result()).
func Run(ctx context.Context, e Engine, opts ...RunOption) (*RunReport, error) {
	return engine.Run(ctx, e, opts...)
}

// WithHooks registers progress hooks. Multiple WithHooks options compose;
// each event is delivered to all of them in option order.
func WithHooks(h Hooks) RunOption { return engine.WithHooks(h) }

// WithProbe evaluates fn after every `every` completed units and delivers
// the value as a ProbeEvent — mid-run metric probes without stopping the
// run, e.g. watching specialization emerge (Example_quickstart).
func WithProbe(name string, every int, fn func() float64) RunOption {
	return engine.WithProbe(name, every, fn)
}

// WithCheckpoints writes a full-state checkpoint every `every` completed
// units; open receives the step count and returns the destination, which
// Run closes after writing. The engine must be a *Simulation or an
// *AsyncSimulation.
func WithCheckpoints(every int, open func(step int) (io.WriteCloser, error)) RunOption {
	return engine.WithCheckpoints(every, open)
}

// ---- Multi-run scheduling ----

// Scheduler multiplexes many engine runs onto one shared WorkerPool: its
// workers drive each submitted Job's run loop a quantum of units at a time
// off one run queue, ordered by priority with aging (no starvation), with
// cancel per job at a unit boundary — where the engine can be checkpointed,
// and a later job can resume it from the checkpoint. Results are
// bit-identical to driving each engine directly with Run, for every worker
// count and priority order.
type Scheduler = engine.Scheduler

// SchedulerConfig parameterizes NewScheduler.
type SchedulerConfig = engine.SchedulerConfig

// Job is one unit of scheduled work: an engine (or a lazy builder for one)
// plus scheduling policy — priority, run options, and a settle callback.
type Job = engine.Job

// NewScheduler creates a scheduler drawing from cfg.Pool (nil selects a
// fresh NumCPU-sized pool).
func NewScheduler(cfg SchedulerConfig) *Scheduler { return engine.NewScheduler(cfg) }

// ---- Engine constructors beyond NewSimulation (specdag.go) ----

// AsyncSimulation is the event-driven Specializing DAG engine.
type AsyncSimulation = core.AsyncSimulation

// NewAsyncSimulation prepares the event-driven simulation as an Engine for
// Run. Cancellation applies per client activation; Result reports partial
// statistics after a canceled run.
func NewAsyncSimulation(fed *Federation, cfg AsyncConfig) (*AsyncSimulation, error) {
	return core.NewAsyncSimulation(fed, cfg)
}

// Federated is the FedAvg/FedProx engine.
type Federated = fl.Federated

// NewFederated prepares a FedAvg run (or FedProx when cfg.ProxMu > 0) as an
// Engine for Run.
func NewFederated(fed *Federation, cfg FedConfig) (*Federated, error) {
	return fl.NewFederated(fed, cfg)
}

// ResumeSimulation reconstructs a Specializing DAG simulation from a
// checkpoint written by (*Simulation).WriteCheckpoint (directly or via
// WithCheckpoints), using the same federation and configuration as the
// original run. The resumed run's history and DAG are bit-identical to an
// uninterrupted run's.
func ResumeSimulation(fed *Federation, cfg Config, r io.Reader) (*Simulation, error) {
	return core.ResumeSimulation(fed, cfg, r)
}

// ResumeAsyncSimulation reconstructs an event-driven simulation from a
// checkpoint written by (*AsyncSimulation).WriteCheckpoint (directly or via
// WithCheckpoints), using the same federation and configuration as the
// original run. The resumed run's event stream, final statistics and DAG
// are bit-identical to an uninterrupted run's. Unlike ResumeSimulation, the
// simulated-time horizon (AsyncConfig.Duration) cannot be extended on
// resume; all timing parameters must match the checkpoint exactly.
func ResumeAsyncSimulation(fed *Federation, cfg AsyncConfig, r io.Reader) (*AsyncSimulation, error) {
	return core.ResumeAsyncSimulation(fed, cfg, r)
}
