package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/par"
)

// fakeEngine is a deterministic synthetic engine for scheduler-semantics
// tests: total units, an optional per-step trace callback, and an optional
// gate channel that each step must receive from (for blocking tests).
type fakeEngine struct {
	name  string
	total int
	steps int
	trace func(name string, step int)
	gate  chan struct{}
}

func (f *fakeEngine) Name() string { return f.name }

func (f *fakeEngine) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	if f.steps >= f.total {
		return nil, true, nil
	}
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f.steps++
	if f.trace != nil {
		f.trace(f.name, f.steps)
	}
	return &engine.StepResult{Round: engine.RoundEvent{Engine: f.name, Round: f.steps - 1}}, false, nil
}

// settleLog records OnSettle order across jobs.
type settleLog struct {
	mu    sync.Mutex
	order []string
}

func (l *settleLog) hook(name string) func(error) {
	return func(error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.order = append(l.order, name)
	}
}

func (l *settleLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// TestSchedulerRunsAllJobsToCompletion: the basic contract — every submitted
// job runs to its engine's natural end, with concurrent workers drawn from
// the budget.
func TestSchedulerRunsAllJobsToCompletion(t *testing.T) {
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(4), Quantum: 3})
	var handles []*engine.Handle
	for i := 0; i < 9; i++ {
		h, err := s.Submit(engine.Job{Engine: &fakeEngine{name: fmt.Sprintf("j%d", i), total: 10}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if st := h.State(); st != engine.JobDone {
			t.Fatalf("job %d state = %v, want done (err %v)", i, st, h.Err())
		}
		if h.Steps() != 10 {
			t.Fatalf("job %d ran %d steps, want 10", i, h.Steps())
		}
		rep := h.Report()
		if rep == nil || !rep.Completed || rep.Steps != 10 {
			t.Fatalf("job %d report %+v", i, rep)
		}
	}
	if st := s.Stats(); st.Settled != 9 || st.Dispatches < 9 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedulerPriorityOrderingUnderContention: with one worker and every
// job contending for it, dispatch is a strict priority queue — higher
// Priority first, ties in submission order — and a dispatched job keeps its
// worker across requeues (locality tiebreak) until it completes.
func TestSchedulerPriorityOrderingUnderContention(t *testing.T) {
	var mu sync.Mutex
	var trace []string
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(1), Quantum: 1})
	prios := []int{0, 5, 3, 5}
	for i, p := range prios {
		name := fmt.Sprintf("p%d-j%d", p, i)
		_, err := s.Submit(engine.Job{
			Engine: &fakeEngine{name: name, total: 3, trace: func(n string, _ int) {
				mu.Lock()
				trace = append(trace, n)
				mu.Unlock()
			}},
			Name:     name,
			Priority: p,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, i := range []int{1, 3, 2, 0} { // priority desc, then submission order
		for k := 0; k < 3; k++ {
			want = append(want, fmt.Sprintf("p%d-j%d", prios[i], i))
		}
	}
	if got := strings.Join(trace, " "); got != strings.Join(want, " ") {
		t.Fatalf("step trace\n got %s\nwant %s", got, strings.Join(want, " "))
	}
}

// TestSchedulerStarvationFreedomViaAging: a low-priority job under a
// continuous stream of high-priority arrivals still runs, because every 64
// dispatches it waits raise its effective priority by one until it ties the
// stream and wins on submission order. The contrast — a job too far below
// the stream to age across within the run — pins that it is the aging doing
// it: that job only runs once the stream has dried up.
func TestSchedulerStarvationFreedomViaAging(t *testing.T) {
	// Two self-regenerating high-priority streams: each settle submits the
	// next generation, so high-priority work never dries up until the
	// generations are exhausted. Single worker keeps dispatch deterministic.
	const (
		generations = 400 // 1600 stream dispatches: low ages across twice, lowest never
		streamPrio  = 10
	)
	var log settleLog
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(1), Quantum: 1})
	for _, j := range []struct {
		name string
		prio int
	}{{"low", 0}, {"lowest", -100}} {
		if _, err := s.Submit(engine.Job{
			Engine:   &fakeEngine{name: j.name, total: 1},
			Name:     j.name,
			Priority: j.prio,
			OnSettle: log.hook(j.name),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var submitGen func(stream string, gen int)
	submitGen = func(stream string, gen int) {
		name := fmt.Sprintf("%s-g%d", stream, gen)
		_, err := s.Submit(engine.Job{
			Engine:   &fakeEngine{name: name, total: 1},
			Name:     name,
			Priority: streamPrio,
			OnSettle: func(err error) {
				if gen+1 < generations {
					submitGen(stream, gen+1)
				}
				log.hook(name)(err)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	submitGen("a", 0)
	submitGen("b", 0)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	order := log.snapshot()
	pos := func(name string) int {
		for i, n := range order {
			if n == name {
				return i
			}
		}
		return -1
	}
	if len(order) != 2*generations+2 {
		t.Fatalf("%d settles, want %d", len(order), 2*generations+2)
	}
	// After 64 dispatches per level the priority-0 job ties the stream and
	// wins as the earliest submission. A one-unit job takes two dispatches
	// (the second finds its engine done) and low waits 640 for each, so the
	// 1280 dispatches before the one that settles it are the stream's: 640
	// stream jobs settle first.
	if p, want := pos("low"), 64*streamPrio; p != want {
		t.Fatalf("low settled at position %d of %d, want %d — starved, or aging is not 64 dispatches a level",
			p, len(order), want)
	}
	if p := pos("lowest"); p != len(order)-1 {
		t.Fatalf("lowest settled at position %d, want last %d — contrast broken", p, len(order)-1)
	}
}

// dispatchTrace drives jobs (priority and units by index) on one worker and
// returns the run-length encoded step trace: "j1x3 j0x2" is three units of
// job 1, then two of job 0.
func dispatchTrace(t *testing.T, quantum int, prios, units []int) string {
	t.Helper()
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(1), Quantum: quantum})
	var (
		runs []string
		last string
		n    int
	)
	flush := func() {
		if n > 0 {
			runs = append(runs, fmt.Sprintf("%sx%d", last, n))
		}
	}
	for i := range prios {
		name := fmt.Sprintf("j%d", i)
		if _, err := s.Submit(engine.Job{
			Engine: &fakeEngine{name: name, total: units[i], trace: func(name string, _ int) {
				if name != last {
					flush()
					last, n = name, 0
				}
				n++
			}},
			Priority: prios[i],
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	flush()
	return strings.Join(runs, " ")
}

// TestSchedulerDispatchOrder pins single-worker dispatch: effective priority
// (aging at 64 dispatches a level), then submission order. The traces were
// recorded from the per-worker-deque scheduler this one replaced and must
// not change.
func TestSchedulerDispatchOrder(t *testing.T) {
	for _, tc := range []struct {
		quantum      int
		prios, units []int
		want         string
	}{
		{1, []int{0, 5, 3, 5}, []int{3, 3, 3, 3}, "j1x3 j3x3 j2x3 j0x3"},
		{2, []int{1, 1, 1}, []int{5, 3, 4}, "j0x5 j1x3 j2x4"},
		{8, []int{0, 2, 1, 2}, []int{20, 9, 17, 30}, "j1x9 j3x30 j2x17 j0x20"},
		{1, []int{0, 1}, []int{2, 200}, "j1x64 j0x1 j1x64 j0x1 j1x72"},
		{1, []int{1, 0}, []int{200, 2}, "j0x128 j1x1 j0x72 j1x1"},
		{1, []int{2, 0, 1}, []int{300, 2, 100}, "j0x128 j2x1 j0x63 j1x1 j0x64 j2x1 j0x45 j1x1 j2x98"},
		{4, []int{3, 0, 0, 1}, []int{600, 5, 9, 300}, "j0x600 j3x4 j1x4 j2x4 j3x252 j1x1 j2x4 j3x44 j2x1"},
	} {
		if got := dispatchTrace(t, tc.quantum, tc.prios, tc.units); got != tc.want {
			t.Errorf("quantum %d, priorities %v, units %v:\n got %s\nwant %s", tc.quantum, tc.prios, tc.units, got, tc.want)
		}
	}
}

// TestSchedulerCountsMigrations: Steals counts dispatches of a job on
// another worker than the one that ran its previous quantum — none when one
// worker runs everything, at least one when a job provably changes workers.
func TestSchedulerCountsMigrations(t *testing.T) {
	t.Run("one-slot budget", func(t *testing.T) {
		// A two-slot budget has room for a helper, but the slot is taken:
		// Spawn refuses, and the root runs every quantum.
		pool := par.NewBudget(2)
		release := make(chan struct{})
		defer close(release)
		if !pool.Spawn(func() { <-release }) {
			t.Fatal("Spawn refused a slot on an idle budget")
		}
		s := engine.NewScheduler(engine.SchedulerConfig{Pool: pool, Quantum: 3})
		var handles []*engine.Handle
		for i := 0; i < 4; i++ {
			h, err := s.Submit(engine.Job{Engine: &fakeEngine{name: fmt.Sprintf("j%d", i), total: 7}, Priority: i % 2})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i, h := range handles {
			if h.State() != engine.JobDone {
				t.Fatalf("job %d: %v (%v)", i, h.State(), h.Err())
			}
		}
		// 7 units at quantum 3: two full quanta and a third that takes the
		// last unit and finds the engine done.
		if st := s.Stats(); st.Steals != 0 || st.Dispatches != 4*3 {
			t.Fatalf("stats %+v, want 12 dispatches and no steal", st)
		}
	})

	t.Run("two workers", func(t *testing.T) {
		pool := par.NewBudget(2)
		s := engine.NewScheduler(engine.SchedulerConfig{Pool: pool, Quantum: 1})
		ctx, stop := context.WithCancel(context.Background())
		defer stop()

		// Hold the helper slot so that only the root can run the mover's
		// first quanta.
		release := make(chan struct{})
		if !pool.Spawn(func() { <-release }) {
			t.Fatal("Spawn refused a slot on an idle budget")
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ctx) }()

		stepped := make(chan struct{}, 1)
		mover, err := s.Submit(engine.Job{
			Engine: &fakeEngine{name: "mover", total: 1 << 30, trace: func(string, int) {
				select {
				case stepped <- struct{}{}:
				default:
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		<-stepped
		// Pin the root — the worker that ran the mover — inside a blocking
		// engine that outranks it, so the mover waits in the queue; then free
		// the helper slot. Helpers are recruited when a job is enqueued, so one
		// more job rings for one: the helper runs that job (never run, so local
		// to it) and then the mover, whose next quantum can only run there.
		gate := make(chan struct{})
		pin, err := s.Submit(engine.Job{Engine: &fakeEngine{name: "pin", total: 1, gate: gate}, Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		for pin.State() != engine.JobRunning {
			time.Sleep(time.Millisecond)
		}
		close(release)
		for pool.InUse() != 0 {
			time.Sleep(time.Millisecond)
		}
		before := s.Stats().Steals
		for len(stepped) > 0 {
			<-stepped
		}
		if _, err := s.Submit(engine.Job{Engine: &fakeEngine{name: "bell", total: 1}}); err != nil {
			t.Fatal(err)
		}
		<-stepped // running again while the root is still pinned
		if got := s.Stats().Steals; got < before+1 {
			t.Fatalf("steals %d -> %d across a provable change of worker", before, got)
		}
		if err := mover.Cancel(context.Background()); err != nil {
			t.Fatal(err)
		}
		close(gate)
		if err := pin.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		stop()
		if err := <-served; !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v", err)
		}
	})
}

// TestSchedulerCancelRunningJob: canceling a running job stops it at its next
// unit boundary and settles it with ErrJobCanceled; a settled job refuses a
// second cancel with ErrJobSettled.
func TestSchedulerCancelRunningJob(t *testing.T) {
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(1), Quantum: 2})
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	stepped := make(chan struct{}, 1)
	h, err := s.Submit(engine.Job{
		Engine: &fakeEngine{name: "long", total: 1 << 30, trace: func(string, int) {
			select {
			case stepped <- struct{}{}:
			default:
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-stepped // the job is running
	if err := h.Cancel(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.State(); st != engine.JobCanceled {
		t.Fatalf("state after cancel = %v", st)
	}
	if !errors.Is(h.Err(), engine.ErrJobCanceled) {
		t.Fatalf("err = %v, want ErrJobCanceled", h.Err())
	}
	if err := h.Cancel(context.Background()); !errors.Is(err, engine.ErrJobSettled) {
		t.Fatalf("double cancel err = %v, want ErrJobSettled", err)
	}

	stop()
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestSchedulerCancelBeforeDrive: queued jobs can be canceled before any
// drive loop exists, and Drain then has nothing to do for them.
func TestSchedulerCancelBeforeDrive(t *testing.T) {
	var log settleLog
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(2)})
	doomed, err := s.Submit(engine.Job{
		Engine: &fakeEngine{name: "doomed", total: 100}, OnSettle: log.hook("doomed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := s.Submit(engine.Job{Engine: &fakeEngine{name: "kept", total: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := doomed.Cancel(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(doomed.Err(), engine.ErrJobCanceled) || doomed.Steps() != 0 {
		t.Fatalf("canceled queued job: err=%v steps=%d", doomed.Err(), doomed.Steps())
	}
	if got := log.snapshot(); len(got) != 1 || got[0] != "doomed" {
		t.Fatalf("OnSettle log %v", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if kept.State() != engine.JobDone {
		t.Fatalf("kept job %v (%v)", kept.State(), kept.Err())
	}
}

// TestSchedulerDrainStopsAtBoundariesAndResumes: canceling Drain's context
// stops jobs at unit boundaries without settling them; a fresh Drain picks
// them back up and completes the identical work.
func TestSchedulerDrainStopsAtBoundariesAndResumes(t *testing.T) {
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(1), Quantum: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var total int
	var handles []*engine.Handle
	for i := 0; i < 3; i++ {
		h, err := s.Submit(engine.Job{Engine: &fakeEngine{name: fmt.Sprintf("j%d", i), total: 10,
			trace: func(string, int) {
				total++
				if total == 7 {
					cancel() // mid-grid crash
				}
			}}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Drain returned %v", err)
	}
	settledEarly := 0
	for _, h := range handles {
		if h.State() == engine.JobDone {
			settledEarly++
		}
	}
	if settledEarly == len(handles) {
		t.Fatal("every job finished before the interrupt — test proves nothing")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if h.State() != engine.JobDone || h.Steps() != 10 {
			t.Fatalf("job %d after resumed drain: %v steps=%d", i, h.State(), h.Steps())
		}
	}
	if total != 30 {
		t.Fatalf("engines stepped %d total units, want exactly 30 (no rework)", total)
	}
}

// TestSchedulerLazyBuild: Build jobs construct their engine at first
// dispatch; a failing build settles the job as failed without killing the
// drain.
func TestSchedulerLazyBuild(t *testing.T) {
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(2)})
	built := 0
	ok, err := s.Submit(engine.Job{
		Name: "lazy",
		Build: func(ctx context.Context) (engine.Engine, []engine.Option, error) {
			built++
			return &fakeEngine{name: "lazy", total: 4}, nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if built != 0 {
		t.Fatal("Build ran at submit, want first dispatch")
	}
	bad, err := s.Submit(engine.Job{
		Name: "bad",
		Build: func(ctx context.Context) (engine.Engine, []engine.Option, error) {
			return nil, nil, errors.New("no such dataset")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ok.State() != engine.JobDone || built != 1 {
		t.Fatalf("lazy job %v, built %d times", ok.State(), built)
	}
	if bad.State() != engine.JobFailed || !strings.Contains(bad.Err().Error(), "no such dataset") {
		t.Fatalf("bad build job %v (%v)", bad.State(), bad.Err())
	}

	if _, err := s.Submit(engine.Job{}); err == nil {
		t.Fatal("submit with neither Engine nor Build must fail")
	}
	if _, err := s.Submit(engine.Job{
		Engine: &fakeEngine{name: "x", total: 1},
		Build: func(ctx context.Context) (engine.Engine, []engine.Option, error) {
			return nil, nil, nil
		},
	}); err == nil {
		t.Fatal("submit with both Engine and Build must fail")
	}
}

// TestSchedulerSharedBudgetBound: real simulations with internal fan-out,
// scheduled concurrently on one budget — total budgeted concurrency never
// exceeds the budget size, and everything is released afterwards.
func TestSchedulerSharedBudgetBound(t *testing.T) {
	pool := par.NewBudget(2)
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: pool, Quantum: 2})
	var handles []*engine.Handle
	for i := 0; i < 3; i++ {
		seed := int64(20 + i)
		h, err := s.Submit(engine.Job{
			Name: fmt.Sprintf("sim%d", i),
			Build: func(ctx context.Context) (engine.Engine, []engine.Option, error) {
				cfg := testConfig()
				cfg.Rounds = 4
				cfg.Workers = 2
				cfg.Pool = pool
				sim, err := core.NewSimulation(testFed(seed), cfg)
				return sim, nil, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if h.State() != engine.JobDone {
			t.Fatalf("sim job %d: %v (%v)", i, h.State(), h.Err())
		}
	}
	if peak := pool.Peak(); peak > 2 {
		t.Fatalf("budget peak %d exceeds size 2", peak)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("budget still reports %d in use after drain", inUse)
	}
}

// TestSchedulerRealEngineInvariance: round simulations driven through the
// scheduler on a shared two-slot budget — under quanta 1 and 2, with
// reversed and mixed priorities — end in checkpoints byte-identical to the
// same simulations driven alone with Run. Scheduling decides only when a
// job's units execute, never what they compute.
func TestSchedulerRealEngineInvariance(t *testing.T) {
	const n = 4
	open := func(i int, pool *par.Budget) (*core.Simulation, error) {
		cfg := testConfig()
		cfg.Rounds = 4
		cfg.Seed = int64(30 + i)
		cfg.Workers = pool.Size()
		cfg.Pool = pool
		return core.NewSimulation(testFed(cfg.Seed), cfg)
	}
	checkpoint := func(sim *core.Simulation) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := sim.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := make([][]byte, n)
	for i := range want {
		sim, err := open(i, par.NewBudget(2))
		if err == nil {
			_, err = engine.Run(context.Background(), sim)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[i] = checkpoint(sim)
	}

	for _, v := range []struct {
		name    string
		quantum int
		prios   []int
	}{
		{"quantum=1", 1, []int{0, 0, 0, 0}},
		{"priorities-reversed", 1, []int{0, 1, 2, 3}},
		{"priorities-mixed", 2, []int{5, 0, 5, 3}},
	} {
		t.Run(v.name, func(t *testing.T) {
			pool := par.NewBudget(2)
			s := engine.NewScheduler(engine.SchedulerConfig{Pool: pool, Quantum: v.quantum})
			sims := make([]*core.Simulation, n)
			for i := range sims {
				_, err := s.Submit(engine.Job{
					Name:     fmt.Sprintf("sim%d", i),
					Priority: v.prios[i],
					Build: func(context.Context) (engine.Engine, []engine.Option, error) {
						sim, err := open(i, pool)
						sims[i] = sim
						return sim, nil, err
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, sim := range sims {
				if got := checkpoint(sim); !bytes.Equal(got, want[i]) {
					t.Errorf("sim%d: scheduled checkpoint differs from Run's (%d vs %d bytes)", i, len(got), len(want[i]))
				}
			}
		})
	}
}

// TestSchedulerRejectsConcurrentDrives: one root at a time.
func TestSchedulerRejectsConcurrentDrives(t *testing.T) {
	s := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(1)})
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()
	// The serve loop is up once a submitted job completes.
	h, err := s.Submit(engine.Job{Engine: &fakeEngine{name: "probe", total: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); !errors.Is(err, engine.ErrSchedulerBusy) {
		t.Fatalf("second drive returned %v, want ErrSchedulerBusy", err)
	}
	stop()
	<-served
	// After the drive ends the scheduler is drivable again.
	if _, err := s.Submit(engine.Job{Engine: &fakeEngine{name: "again", total: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScheduler measures pure scheduling overhead: many tiny jobs whose
// steps do no work, so ns/op is dominated by dispatch and requeue
// bookkeeping. Advisory timing only — no experiment metrics are reported.
func BenchmarkScheduler(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := engine.NewScheduler(engine.SchedulerConfig{
					Pool: par.NewBudget(workers), Quantum: 8,
				})
				for j := 0; j < 64; j++ {
					if _, err := s.Submit(engine.Job{
						Engine: &fakeEngine{name: fmt.Sprintf("j%d", j), total: 64},
					}); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Drain(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
