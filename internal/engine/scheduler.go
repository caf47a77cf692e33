// The multi-run scheduler: N engines multiplexed onto one par.Budget.
//
// Run (engine.go) drives one engine to completion on the calling goroutine.
// The Scheduler drives many: sweep grids submit every cell as a job and the
// serving daemon submits every hosted run, and both draw their concurrency
// from the same shared budget the engines' internal fan-outs use, so the
// whole process never exceeds one worker bound no matter how many runs are
// in flight.
//
// Design:
//
//   - Each job is driven a quantum at a time (Quantum engine units per
//     dispatch) by the exact per-unit loop body Run uses, so hooks, probes
//     and checkpoints behave identically on both paths.
//   - One run queue under one lock: an idle worker takes the runnable job
//     with the highest effective priority, on ties one that did not last
//     run on a different worker (locality; a job that never ran is local to
//     everyone), then submission order — which makes single-worker dispatch
//     a strict priority queue. A dispatch on another worker than the job's
//     previous one is counted as a steal.
//   - Starvation-freedom by aging: a job's effective priority grows by one
//     for every agingQuanta dispatches it waits, so low-priority jobs are
//     eventually picked even under a steady stream of high-priority work.
//   - Worker loops respect the budget: the goroutine calling Drain or Serve
//     is the root worker, and helper workers are spawned through
//     par.Budget.Spawn — they occupy budget slots while alive and exit when
//     no runnable job remains, returning their slots to the engines'
//     fan-outs. There is no naked go statement in this package.
//   - Determinism: scheduling decides only *when* a job's units run, never
//     what they compute — every engine's results are a pure function of
//     (config, seed) — so grid results are bit-identical for every worker
//     count and priority order. The scheduler reads no clock.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/specdag/specdag/internal/par"
)

// JobState is the lifecycle state of a scheduled job.
type JobState int

const (
	// JobQueued: submitted (or requeued between quanta), waiting for a worker.
	JobQueued JobState = iota
	// JobRunning: a worker is inside the job's quantum.
	JobRunning
	// JobDone: the engine reached its natural end.
	JobDone
	// JobCanceled: canceled via Handle.Cancel.
	JobCanceled
	// JobFailed: the engine (or its build) failed.
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobCanceled:
		return "canceled"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobCanceled || s == JobFailed
}

// ErrJobCanceled is the settle error of a job canceled via Handle.Cancel.
var ErrJobCanceled = errors.New("engine: job canceled")

// ErrJobSettled is wrapped by Cancel when the job already reached a terminal
// state.
var ErrJobSettled = errors.New("engine: job already settled")

// ErrSchedulerBusy is returned by Drain/Serve when a drive loop is already
// active: a Scheduler has exactly one root worker at a time.
var ErrSchedulerBusy = errors.New("engine: scheduler is already being driven")

// Job describes one engine submitted to the Scheduler.
//
// Exactly one of Engine and Build must be set. Build defers engine
// construction to the first dispatch, on a worker goroutine: a 10,000-cell
// grid submits 10,000 cheap closures, not 10,000 live simulations, and cells
// that resume from a checkpoint open it only when they actually run.
type Job struct {
	// Engine is a pre-built engine.
	Engine Engine
	// Build constructs the engine lazily at first dispatch. The context is
	// the job's context (canceled by Handle.Cancel). Options returned by
	// Build are applied before Opts.
	Build func(ctx context.Context) (Engine, []Option, error)
	// Name labels the job in errors and stats; defaults to Engine.Name()
	// (or "job-<seq>" for Build jobs).
	Name string
	// Priority orders dispatch: larger runs first. Ties run in submission
	// order. Subject to aging (agingQuanta).
	Priority int
	// Opts are the Run options applied to the job's loop — hooks, probes,
	// checkpoints — exactly as they would be passed to Run.
	Opts []Option
	// OnSettle, when non-nil, is called exactly once when the job reaches a
	// terminal state, with nil for JobDone, ErrJobCanceled for JobCanceled,
	// and the failure for JobFailed. It runs on the settling goroutine
	// before Handle.Wait unblocks.
	OnSettle func(err error)
}

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// Pool is the shared worker budget. Worker loops and the engines'
	// internal fan-outs draw from the same pool, so total concurrency stays
	// bounded by its size: at most Pool.Size() jobs are driven at once, and a
	// one-slot pool is strictly sequential — the root worker drives jobs one
	// quantum at a time in priority order. Nil selects par.NewBudget(0).
	Pool *par.Budget
	// Quantum is the number of engine units per dispatch; <= 0 selects 8.
	// Smaller quanta interleave jobs more finely (lower priority latency),
	// larger quanta amortize dispatch overhead.
	Quantum int
}

// agingQuanta is the number of dispatches a waiting job needs to gain one
// effective priority.
const agingQuanta = 64

// Stats are cumulative scheduler counters.
type Stats struct {
	// Dispatches counts quanta handed to workers.
	Dispatches int64
	// Steals counts dispatches of a job on another worker than the one that
	// ran its previous quantum.
	Steals int64
	// Settled counts jobs that reached a terminal state.
	Settled int64
}

// Scheduler multiplexes many engine run loops onto one shared par.Budget
// with priority ordering, aging, per-job cancel and per-job checkpoints (via
// WithCheckpoints in Job.Opts). Construct with NewScheduler,
// submit with Submit, and drive with Drain (until the backlog settles) or
// Serve (until the context ends).
//
// All methods are safe for concurrent use.
type Scheduler struct {
	pool    *par.Budget
	quantum int

	// wake is the root worker's doorbell: capacity 1, non-blocking sends.
	// Every enqueue, settle and helper exit rings it.
	wake chan struct{}

	mu         sync.Mutex
	queue      []*job // runnable jobs, in the order they became runnable
	nextSeq    int64
	lastWorker int   // id of the newest helper; the root worker is 0
	clock      int64 // dispatch counter: the aging clock
	running    int
	helpers    int
	driveCtx   context.Context // non-nil while a drive loop is active
	stats      Stats
}

// noWorker is job.last before the job's first dispatch.
const noWorker = -1

type job struct {
	s    *Scheduler
	spec Job
	name string
	seq  int64

	ctx    context.Context // job context: canceled by Handle.Cancel
	cancel context.CancelFunc

	done chan struct{} // closed after settle (and after OnSettle returns)

	// Guarded by s.mu.
	state     JobState
	last      int   // worker that ran the previous quantum, or noWorker
	enq       int64 // clock value at the last enqueue (aging)
	cancelReq bool
	steps     int
	err       error
	l         *loop // built at first dispatch
}

// NewScheduler creates a Scheduler on the given budget.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	pool := cfg.Pool
	if pool == nil {
		pool = par.NewBudget(0)
	}
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = 8
	}
	return &Scheduler{
		pool:    pool,
		quantum: quantum,
		wake:    make(chan struct{}, 1),
	}
}

// Stats returns a snapshot of the cumulative counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Submit enqueues a job and returns its handle. Jobs may be submitted before
// or during Drain/Serve; nothing runs until a drive loop is active.
func (s *Scheduler) Submit(spec Job) (*Handle, error) {
	if (spec.Engine == nil) == (spec.Build == nil) {
		return nil, errors.New("engine: a Job needs exactly one of Engine or Build")
	}
	jctx, cancel := context.WithCancel(context.Background())
	j := &job{
		s:      s,
		spec:   spec,
		ctx:    jctx,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  JobQueued,
		last:   noWorker,
	}
	s.mu.Lock()
	j.seq = s.nextSeq
	s.nextSeq++
	j.name = spec.Name
	if j.name == "" {
		if spec.Engine != nil {
			j.name = spec.Engine.Name()
		} else {
			j.name = fmt.Sprintf("job-%d", j.seq)
		}
	}
	s.enqueue(j)
	return &Handle{j: j}, nil
}

// Drain drives submitted jobs until every job has settled — the grid-runner
// mode. The calling goroutine is the root worker; helpers
// join through the budget while runnable jobs remain. Drain returns ctx.Err()
// if the context ends first, leaving unfinished jobs queued at unit
// boundaries (their engines retain partial results and checkpoints).
func (s *Scheduler) Drain(ctx context.Context) error { return s.drive(ctx, false) }

// Serve drives jobs until ctx ends — the daemon mode. The root worker parks
// when idle and wakes on new submissions.
func (s *Scheduler) Serve(ctx context.Context) error { return s.drive(ctx, true) }

func (s *Scheduler) drive(ctx context.Context, persistent bool) error {
	s.mu.Lock()
	if s.driveCtx != nil {
		s.mu.Unlock()
		return ErrSchedulerBusy
	}
	s.driveCtx = ctx
	s.mu.Unlock()
	s.addHelpers() // pick up any backlog submitted before the drive started
	s.work(ctx, 0, persistent)
	// Root loop done: wait for the helpers to park their slots. Each helper
	// exit rings the doorbell, so this loop always observes helpers == 0.
	for {
		s.mu.Lock()
		if s.helpers == 0 {
			s.driveCtx = nil
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		<-s.wake
	}
	return ctx.Err()
}

// ring wakes the root worker (non-blocking, coalescing).
func (s *Scheduler) ring() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueue makes a job runnable (caller holds s.mu, which enqueue releases)
// and, when a drive loop is active, wakes the root and recruits helpers.
func (s *Scheduler) enqueue(j *job) {
	j.enq = s.clock
	s.queue = append(s.queue, j)
	driving := s.driveCtx != nil
	s.mu.Unlock()
	if driving {
		s.ring()
		s.addHelpers()
	}
}

// addHelpers spawns helper workers through the budget while there is more
// runnable work than workers to run it. Helpers exit on their own when the
// run queue is empty, returning their budget token.
func (s *Scheduler) addHelpers() {
	for {
		s.mu.Lock()
		ctx := s.driveCtx
		need := ctx != nil && ctx.Err() == nil &&
			s.helpers < s.pool.Size()-1 && len(s.queue) > s.helpers
		if !need {
			s.mu.Unlock()
			return
		}
		s.lastWorker++
		w := s.lastWorker
		s.helpers++
		s.mu.Unlock()
		if !s.pool.Spawn(func() { s.work(ctx, w, false) }) {
			s.mu.Lock()
			s.helpers--
			s.mu.Unlock()
			return
		}
	}
}

// work is the loop of worker w. The root worker (Drain/Serve caller, w == 0)
// parks on the doorbell when idle; helpers exit instead, freeing their
// budget token for the engines' fan-outs.
func (s *Scheduler) work(ctx context.Context, w int, persistent bool) {
	root := w == 0
	if !root {
		defer func() {
			s.mu.Lock()
			s.helpers--
			s.mu.Unlock()
			s.ring()
		}()
	}
	for {
		if ctx.Err() != nil {
			return
		}
		// Recruit helpers for any backlog that built up while the last
		// quantum ran (requeues outpacing settles, bursty submissions).
		s.addHelpers()
		s.mu.Lock()
		j, stolen := s.pick(w)
		if j == nil {
			if !root {
				s.mu.Unlock()
				return // helper: free the budget token
			}
			idle := len(s.queue) == 0 && s.running == 0
			s.mu.Unlock()
			if !persistent && idle {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
			}
			continue
		}
		s.running++
		s.clock++
		s.stats.Dispatches++
		if stolen {
			s.stats.Steals++
		}
		j.state = JobRunning
		s.mu.Unlock()
		s.runQuantum(ctx, w, j)
	}
}

// pick removes and returns the runnable job with the highest effective
// priority (on ties one that did not last run on a worker other than w, then
// submission order), plus whether its previous quantum ran on another
// worker. Caller holds s.mu.
func (s *Scheduler) pick(w int) (*job, bool) {
	local := func(j *job) bool { return j.last == w || j.last == noWorker }
	bestI := -1
	var best *job
	var bestEff int64
	for i, j := range s.queue {
		e := int64(j.spec.Priority) + (s.clock-j.enq)/agingQuanta
		better := best == nil || e > bestEff
		if !better && e == bestEff {
			if local(j) != local(best) {
				better = local(j)
			} else {
				better = j.seq < best.seq
			}
		}
		if better {
			best, bestI, bestEff = j, i, e
		}
	}
	if best == nil {
		return nil, false
	}
	s.queue = slices.Delete(s.queue, bestI, bestI+1)
	return best, !local(best)
}

// runQuantum drives one job for up to quantum units on worker w, building
// the engine first if the job is lazy. It either settles the job or requeues
// it.
func (s *Scheduler) runQuantum(ctx context.Context, w int, j *job) {
	defer func() {
		// A panicking engine settles its job as failed instead of killing a
		// worker goroutine (which would strand Drain); the panic message is
		// preserved in the job error.
		if r := recover(); r != nil {
			s.settle(j, JobFailed, fmt.Errorf("engine: job %s panicked: %v", j.name, r))
		}
	}()
	if j.l == nil {
		eng := j.spec.Engine
		opts := j.spec.Opts
		if j.spec.Build != nil {
			var extra []Option
			var err error
			eng, extra, err = j.spec.Build(j.ctx)
			if err != nil {
				s.settle(j, JobFailed, fmt.Errorf("engine: building job %s: %w", j.name, err))
				return
			}
			opts = append(append([]Option{}, extra...), opts...)
		}
		l, err := newLoop(eng, opts...)
		if err != nil {
			s.settle(j, JobFailed, err)
			return
		}
		s.mu.Lock()
		j.l = l
		s.mu.Unlock()
	}
	for n := 0; n < s.quantum; n++ {
		s.mu.Lock()
		canceled := j.cancelReq
		s.mu.Unlock()
		if canceled {
			s.settle(j, JobCanceled, ErrJobCanceled)
			return
		}
		if ctx.Err() != nil {
			break // requeue at the unit boundary
		}
		done, err := j.l.step(j.ctx)
		if err != nil {
			s.mu.Lock()
			canceled := j.cancelReq
			s.mu.Unlock()
			if canceled && errors.Is(err, context.Canceled) {
				s.settle(j, JobCanceled, ErrJobCanceled)
			} else {
				s.settle(j, JobFailed, err)
			}
			return
		}
		if done {
			s.settle(j, JobDone, nil)
			return
		}
	}
	s.mu.Lock()
	j.steps = j.l.rep.Steps
	if j.cancelReq {
		s.mu.Unlock()
		s.settle(j, JobCanceled, ErrJobCanceled)
		return
	}
	s.running--
	j.last = w // locality: the engine's state is warm on this worker
	j.enq = s.clock
	j.state = JobQueued
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.ring()
}

// settle moves a job to a terminal state exactly once, runs OnSettle, then
// unblocks Wait/Cancel. Caller must not hold s.mu.
func (s *Scheduler) settle(j *job, st JobState, err error) {
	s.mu.Lock()
	if j.state.terminal() {
		s.mu.Unlock()
		return
	}
	if j.state == JobRunning {
		s.running--
	}
	if j.l != nil {
		j.steps = j.l.rep.Steps
	}
	j.err = err
	j.state = st
	s.stats.Settled++
	s.mu.Unlock()
	j.cancel()
	if j.spec.OnSettle != nil {
		j.spec.OnSettle(err)
	}
	close(j.done)
	s.ring()
}

// removeQueued takes a queued job off the run queue. Caller holds s.mu.
func (s *Scheduler) removeQueued(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = slices.Delete(s.queue, i, i+1)
			return
		}
	}
}

// Handle controls one submitted job.
type Handle struct{ j *job }

// Name returns the job's label.
func (h *Handle) Name() string { return h.j.name }

// State returns the job's current lifecycle state.
func (h *Handle) State() JobState {
	h.j.s.mu.Lock()
	defer h.j.s.mu.Unlock()
	return h.j.state
}

// Steps returns the number of completed units, updated at quantum
// boundaries and on settle.
func (h *Handle) Steps() int {
	h.j.s.mu.Lock()
	defer h.j.s.mu.Unlock()
	return h.j.steps
}

// Err returns the settle error: nil while the job is live or after JobDone,
// ErrJobCanceled after Cancel, the failure after JobFailed.
func (h *Handle) Err() error {
	h.j.s.mu.Lock()
	defer h.j.s.mu.Unlock()
	return h.j.err
}

// Report returns the job's run report after it settled, nil before.
func (h *Handle) Report() *Report {
	h.j.s.mu.Lock()
	defer h.j.s.mu.Unlock()
	if !h.j.state.terminal() || h.j.l == nil {
		return nil
	}
	return h.j.l.rep
}

// Wait blocks until the job settles (returning its settle error) or ctx
// ends (returning ctx.Err()).
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.j.done:
		return h.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel settles the job as JobCanceled: a queued job immediately, a running
// one by canceling the job context and waiting for it to settle — which it
// does at a unit boundary (see Engine.Step), so OnSettle finds the engine as
// a checkpoint needs it. Canceling a settled job returns an error wrapping
// ErrJobSettled. Either way the job's OnSettle has returned when Cancel
// does, unless ctx ended first: Cancel then returns ctx.Err() and the job
// still settles at its boundary.
func (h *Handle) Cancel(ctx context.Context) error {
	j := h.j
	s := j.s
	s.mu.Lock()
	var settled error
	switch {
	case j.state.terminal():
		settled = fmt.Errorf("engine: canceling %s job %s: %w", j.state, j.name, ErrJobSettled)
	case j.state == JobQueued:
		s.removeQueued(j)
		s.mu.Unlock()
		s.settle(j, JobCanceled, ErrJobCanceled)
		return nil
	default:
		j.cancelReq = true
	}
	s.mu.Unlock()
	j.cancel()
	select {
	case <-j.done:
		return settled
	case <-ctx.Done():
		return ctx.Err()
	}
}
