// Package engine defines the unified run surface behind every experiment:
// a single Run loop that drives any Engine — the synchronous round
// simulation, the event-driven asynchronous simulation, the FedAvg/FedProx
// baselines and the gossip baseline — with context cancellation at round or
// event granularity, typed progress events delivered through Hooks,
// periodic mid-run metric probes, and periodic checkpoints for engines
// that support them. (The worker budget is the engine's own Config.Pool.)
//
// The paper's deployment model (§5.3.3: each client "continuously runs the
// training process … independent from all other clients") treats a runner as
// a long-lived, monitorable process rather than a batch call; Run is that
// process's control loop. Engines remain plain steppers — all policy
// (cancel, observe, checkpoint) lives here, so every engine gains
// every capability at once.
package engine

import (
	"context"
	"fmt"
	"io"
)

// RoundEvent reports one completed unit of work: a training round for the
// round-based engines, or a single client activation for the event-driven
// engine.
type RoundEvent struct {
	// Engine is the emitting engine's Name.
	Engine string
	// Round is the 0-based index of the completed unit.
	Round int
	// Time is the simulated time in seconds for event-driven engines, 0 for
	// round-based ones.
	Time float64
	// MeanAcc and MeanLoss summarize the unit's evaluation.
	MeanAcc  float64
	MeanLoss float64
	// Published counts model updates published by this unit.
	Published int
	// DAGSize is the tangle size after the unit (0 for DAG-free engines).
	DAGSize int
	// Detail carries the engine-specific result for this unit — e.g. a
	// *core.RoundResult, *core.AsyncEvent or *fl.RoundResult — for observers
	// that need more than the summary fields above.
	Detail any
}

// PublishEvent reports one model update entering (or being scheduled to
// enter) the DAG.
type PublishEvent struct {
	Engine string
	// Round is the unit in which the publish happened.
	Round int
	// Time is the publish time in simulated seconds (event-driven engines).
	Time float64
	// Issuer is the publishing client ID (negative for attackers/genesis).
	Issuer int
	// Tx is the transaction ID, or -1 when the ID is not assigned yet (the
	// asynchronous engine delays insertion by the network propagation time).
	Tx int
	// Acc is the publisher's local test accuracy stamped on the update.
	Acc float64
	// Poisoned marks updates published from poisoned data.
	Poisoned bool
}

// ProbeEvent reports one mid-run metric probe (see WithProbe).
type ProbeEvent struct {
	Engine string
	// Step is the number of completed units when the probe ran.
	Step  int
	Name  string
	Value float64
}

// Hooks receives typed progress events during Run. Nil fields are skipped.
// Hooks are invoked synchronously on Run's goroutine, strictly ordered by
// unit — an observer sees exactly one RoundEvent per completed unit, in
// order, regardless of how many workers the engine uses internally.
type Hooks struct {
	OnRound   func(RoundEvent)
	OnPublish func(PublishEvent)
	OnProbe   func(ProbeEvent)
}

// StepResult is what an Engine reports for one completed unit of work.
type StepResult struct {
	Round     RoundEvent
	Publishes []PublishEvent
}

// Engine is a resumable experiment stepper. Implementations: the round
// simulation (core.Simulation), the event simulation (core.AsyncSimulation),
// the centralized baselines (fl.Federated) and gossip learning (fl.Gossip).
//
// Step advances by one unit (round or event) and reports it; done is true —
// with a nil result — once the run is complete. Step must honor ctx by
// returning ctx.Err() as soon as practical, and a Step that returns ctx.Err()
// must leave the engine at a unit boundary, as if it had not been called:
// that state is what gets checkpointed, twice over — cmd/specdag writes its
// final checkpoint after Ctrl-C, and the serving daemon pauses a run by
// canceling its job and checkpointing the engine the job leaves behind. (The
// engines here look at ctx only before they start a unit.) Engines keep their
// accumulated results internally, so a canceled run's partial results remain
// accessible.
type Engine interface {
	// Name identifies the engine in events and logs.
	Name() string
	Step(ctx context.Context) (res *StepResult, done bool, err error)
}

// Checkpoint is a checkpoint as a value: it knows its size and writes its
// bytes into whoever reads it — a file, a download, a resume — as often as
// asked.
type Checkpoint interface {
	Size() int64
	io.WriterTo
}

// Snapshotter is implemented by engines whose full state can be checkpointed
// mid-run and later resumed bit-identically (core.Simulation: Checkpoint,
// then ResumeSimulation on its bytes). Checkpoint takes the state at the
// current unit boundary; the run may go on, and the value stays the
// checkpoint of that boundary.
type Snapshotter interface {
	Checkpoint() Checkpoint
}

// Report summarizes a Run.
type Report struct {
	Engine string
	// Steps is the number of completed units.
	Steps int
	// Completed is true when the engine reached its natural end, false when
	// the run was canceled or failed.
	Completed bool
}

// Option configures Run.
type Option func(*options)

type probe struct {
	name  string
	every int
	fn    func() float64
}

type options struct {
	hooks      []Hooks
	probes     []probe
	checkEvery int
	checkSave  func(Checkpoint) error
}

// WithHooks registers progress hooks. Multiple WithHooks options compose;
// each event is delivered to all of them in option order.
func WithHooks(h Hooks) Option {
	return func(o *options) { o.hooks = append(o.hooks, h) }
}

// WithProbe evaluates fn after every `every` completed units and delivers
// the value as a ProbeEvent — mid-run metric probes (e.g. ApprovalPureness
// over the live DAG) without stopping the run. fn runs on Run's goroutine
// between units, so it may safely read engine state.
func WithProbe(name string, every int, fn func() float64) Option {
	return func(o *options) {
		if every <= 0 {
			every = 1
		}
		o.probes = append(o.probes, probe{name: name, every: every, fn: fn})
	}
}

// WithCheckpoints takes a checkpoint every `every` completed units and hands
// it to save (WriteAtomic persists one to a file); a save error stops Run,
// wrapped with the step. The engine must implement Snapshotter; Run fails
// fast otherwise.
func WithCheckpoints(every int, save func(Checkpoint) error) Option {
	return func(o *options) {
		if every <= 0 {
			every = 1
		}
		o.checkEvery = every
		o.checkSave = save
	}
}

// loop is one engine's run loop, factored out of Run so the Scheduler can
// drive the identical per-unit body (step, hooks, probes, checkpoints) a
// quantum at a time. Every semantic guarantee Run documents — hooks strictly
// ordered by unit, probes between units on the driving goroutine, checkpoints
// at unit boundaries — holds because both paths execute this one body.
type loop struct {
	e    Engine
	o    options
	rep  *Report
	snap Snapshotter
}

func newLoop(e Engine, opts ...Option) (*loop, error) {
	l := &loop{e: e, rep: &Report{Engine: e.Name()}}
	for _, opt := range opts {
		opt(&l.o)
	}
	var isSnap bool
	l.snap, isSnap = e.(Snapshotter)
	if l.o.checkSave != nil && !isSnap {
		return l, fmt.Errorf("engine: %s does not support checkpoints", e.Name())
	}
	return l, nil
}

// step runs exactly one unit: the context check, the engine step, hook
// delivery, due probes and a due checkpoint. It reports done=true when the
// engine reached its natural end.
func (l *loop) step(ctx context.Context) (done bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	res, done, err := l.e.Step(ctx)
	if err != nil {
		return false, err
	}
	if done {
		l.rep.Completed = true
		return true, nil
	}
	l.rep.Steps++
	for _, h := range l.o.hooks {
		if h.OnPublish != nil {
			for _, p := range res.Publishes {
				h.OnPublish(p)
			}
		}
		if h.OnRound != nil {
			h.OnRound(res.Round)
		}
	}
	for _, pr := range l.o.probes {
		if l.rep.Steps%pr.every != 0 {
			continue
		}
		ev := ProbeEvent{Engine: l.e.Name(), Step: l.rep.Steps, Name: pr.name, Value: pr.fn()}
		for _, h := range l.o.hooks {
			if h.OnProbe != nil {
				h.OnProbe(ev)
			}
		}
	}
	if l.o.checkSave != nil && l.rep.Steps%l.o.checkEvery == 0 {
		if err := l.o.checkSave(l.snap.Checkpoint()); err != nil {
			return false, fmt.Errorf("engine: checkpoint at step %d: %w", l.rep.Steps, err)
		}
	}
	return false, nil
}

// Run drives e to completion (or cancellation): the one entry point behind
// every experiment. It returns the report alongside the first error — on
// cancellation that is ctx.Err(), and the engine retains the partial results
// of the units completed so far.
func Run(ctx context.Context, e Engine, opts ...Option) (*Report, error) {
	l, err := newLoop(e, opts...)
	if err != nil {
		return l.rep, err
	}
	for {
		done, err := l.step(ctx)
		if err != nil {
			return l.rep, err
		}
		if done {
			return l.rep, nil
		}
	}
}
