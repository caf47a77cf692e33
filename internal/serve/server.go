package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the size of the shared worker budget every hosted run's
	// internal fan-out draws from (<= 0 selects the number of CPUs). One
	// budget bounds the whole daemon: N concurrent runs share it instead of
	// each claiming the machine.
	Workers int
	// Ring is the per-run event ring capacity in frames (<= 0 selects
	// DefaultRingSize). A subscriber lagging by more than this observes a
	// gap (see Broadcaster). It is a bound, not an allocation: each run's
	// ring grows with the frames it logs and reaches Ring only in a run
	// that logs that many.
	Ring int
	// CheckpointEvery is the default checkpoint cadence in engine units for
	// runs that do not choose their own (<= 0 selects 25).
	CheckpointEvery int
	// Quantum is the scheduler dispatch quantum in engine units: how many
	// units one hosted run executes per dispatch before the scheduler
	// re-picks by priority (<= 0 selects the scheduler default).
	Quantum int
	// Dir, when non-empty, is where Shutdown persists the checkpoints of
	// in-flight runs (and Restore re-registers them on the next boot).
	Dir string
	// SpillDir, when non-empty, is where each run's event log is mirrored to
	// disk (run-<id>.sde, SDE2). A subscriber that falls behind the ring then
	// gets the overwritten frames replayed from the spill file instead of a
	// Gap frame — the stream stays complete regardless of ring size.
	SpillDir string
	// MaxRuns caps concurrently active (running or paused) runs; further
	// submissions answer 429 until one settles. 0 means unlimited.
	MaxRuns int
	// MaxRunsPerTenant caps active runs per RunRequest.Tenant (the empty
	// tenant is a tenant like any other). 0 means unlimited.
	MaxRunsPerTenant int
}

// EventStreamContentType is the Content-Type of the SDE2 events endpoint.
const EventStreamContentType = "application/x-specdag-event-stream"

// CheckpointIndexHeader carries a checkpoint's event-log index on the
// checkpoint download endpoint.
const CheckpointIndexHeader = "X-Specdag-Checkpoint-Index"

// A Server hosts many concurrent experiment runs on one shared worker
// budget and serves their live event streams and lifecycle over HTTP. Use
// NewServer, mount Handler on any http.Server (or use it directly with
// httptest), and stop with Shutdown.
//
// Underneath Submit/Pause/Resume/Cancel sits one engine.Scheduler: every
// running run is a scheduler job, multiplexed with the others onto the shared
// budget by priority a quantum of units at a time, instead of each run
// claiming its own goroutine for its whole lifetime. A paused run is no job:
// it is a record holding a checkpoint, the same thing before and after a
// daemon restart.
type Server struct {
	cfg       Config
	pool      *par.Budget
	mux       *http.ServeMux
	sched     *engine.Scheduler
	stopSched context.CancelFunc

	mu     sync.Mutex
	runs   map[int]*run
	nextID int
	wg     sync.WaitGroup // the scheduler supervisor goroutine
}

// Run states reported by the status endpoints.
const (
	StateRunning  = "running"
	StatePaused   = "paused"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// hosted is an engine the server can host: one it can checkpoint. buildEngine
// returns nothing else, so every run can be paused.
type hosted interface {
	engine.Engine
	engine.Snapshotter
}

// checkpointFile is a checkpoint as its bytes: the file Restore read.
type checkpointFile []byte

func (b checkpointFile) Size() int64 { return int64(len(b)) }

func (b checkpointFile) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// run is one hosted experiment. Only a running run has a scheduler job and an
// engine; paused or ended, it is its request, its event log and its latest
// checkpoint — a capture, not a blob: the cadence pins the transactions at the
// unit boundary, and nothing is encoded unless someone reads it.
type run struct {
	id  int
	req RunRequest
	b   *Broadcaster

	mu        sync.Mutex
	state     string
	steps     int // completed engine units
	err       string
	handle    *engine.Handle    // the run's scheduler job while running, else nil
	eng       hosted            // the job's engine while running, else nil
	pausing   bool              // Pause is stopping the job: settle checkpoints it instead of ending the run
	ckpt      engine.Checkpoint // latest checkpoint, nil if none yet
	ckptIndex uint64            // event-log index the checkpoint resumes from
	ckptStep  int               // engine units completed at the checkpoint
}

// NewServer creates a server with its shared worker budget and routes.
func NewServer(cfg Config) *Server {
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 25
	}
	s := &Server{
		cfg:    cfg,
		pool:   par.NewBudget(cfg.Workers),
		mux:    http.NewServeMux(),
		runs:   make(map[int]*run),
		nextID: 1,
	}
	s.sched = engine.NewScheduler(engine.SchedulerConfig{
		Pool:    s.pool,
		Quantum: cfg.Quantum,
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stopSched = cancel
	s.wg.Add(1)
	// The scheduler's serve loop: one supervisor goroutine multiplexes every
	// hosted run onto the shared budget; everything nondeterministic
	// (subscribers, HTTP) stays on the other side of the broadcaster.
	// Transport-boundary supervisor, audited:
	//speclint:allow budget one long-lived scheduler supervisor per server, joined via s.wg on Shutdown
	go func() {
		defer s.wg.Done()
		s.sched.Serve(ctx)
	}()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.lifecycle(func(context.Context, int) error { return nil }))
	s.mux.HandleFunc("POST /runs/{id}/pause", s.lifecycle(func(ctx context.Context, id int) error {
		_, err := s.Pause(ctx, id)
		return err
	}))
	s.mux.HandleFunc("POST /runs/{id}/resume", s.lifecycle(func(_ context.Context, id int) error { return s.Resume(id) }))
	s.mux.HandleFunc("POST /runs/{id}/cancel", s.lifecycle(s.Cancel))
	s.mux.HandleFunc("GET /runs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	return s
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the shared worker budget (tests assert its bounds).
func (s *Server) Pool() *par.Budget { return s.pool }

// RunRequest is the JSON body of POST /runs: the network form of the
// cmd/specdag flag set. The sync round engine runs by default; Async
// selects the event-driven engine, whose horizon is Duration (simulated
// seconds) instead of Rounds.
type RunRequest struct {
	// Dataset names a sim preset: fmnist | fmnist-relaxed | fmnist-bywriter
	// | poets | cifar100 | fedprox.
	Dataset string `json:"dataset"`
	// Preset is the experiment scale: quick (default) | full.
	Preset string `json:"preset,omitempty"`
	// Seed is the root random seed (the run is a pure function of it).
	Seed int64 `json:"seed"`
	// Selector is the tip selector: accuracy (default) | weighted | urts |
	// uniform; Alpha and Norm parameterize it. DepthMin/DepthMax, when
	// positive, band the walk entry depth (required for compaction).
	Selector string  `json:"selector,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	Norm     string  `json:"norm,omitempty"`
	DepthMin int     `json:"depth_min,omitempty"`
	DepthMax int     `json:"depth_max,omitempty"`
	// Rounds and ClientsPerRound override the preset (sync engine only).
	Rounds          int `json:"rounds,omitempty"`
	ClientsPerRound int `json:"clients_per_round,omitempty"`
	// Async switches to the event-driven engine with the given timing
	// parameters (defaults: 120s horizon, [1s, 8s] cycles, 0.5s delay).
	Async    bool    `json:"async,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	MinCycle float64 `json:"min_cycle,omitempty"`
	MaxCycle float64 `json:"max_cycle,omitempty"`
	NetDelay float64 `json:"net_delay,omitempty"`
	// Workers caps this run's internal fan-out; the actual concurrency is
	// additionally bounded by the server's shared budget.
	Workers int `json:"workers,omitempty"`
	// Priority orders this run against the server's other runs on the shared
	// scheduler (larger dispatches first; ties run in submission order).
	// Priority only affects when units execute, never their results.
	Priority int `json:"priority,omitempty"`
	// CheckpointEvery is the checkpoint cadence in engine units (rounds or
	// events; 0 selects the server default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Label is a free-form run name for listings and event logs.
	Label string `json:"label,omitempty"`
	// Tenant attributes the run for per-tenant submit quotas
	// (Config.MaxRunsPerTenant); empty is a valid tenant.
	Tenant string `json:"tenant,omitempty"`
	// CompactWidth enables epoch-based DAG compaction with the given epoch
	// width (rounds or simulated seconds); CompactLive is the number of
	// trailing epochs kept live (default 2). Requires a depth-banded selector
	// (DepthMax >= 1 for walk selectors). Frozen parameter vectors are
	// released without spilling — requests cannot name server filesystem
	// paths — so the run stays byte-identical while its memory is bounded by
	// the live suffix.
	CompactWidth int `json:"compact_width,omitempty"`
	CompactLive  int `json:"compact_live,omitempty"`
}

// RunStatus is the JSON shape of the status and list endpoints.
type RunStatus struct {
	ID              int    `json:"id"`
	Label           string `json:"label,omitempty"`
	Engine          string `json:"engine"`
	Dataset         string `json:"dataset"`
	Seed            int64  `json:"seed"`
	State           string `json:"state"`
	Steps           int    `json:"steps"`
	Err             string `json:"error,omitempty"`
	NextIndex       uint64 `json:"next_index"`
	EarliestIndex   uint64 `json:"earliest_index"`
	HasCheckpoint   bool   `json:"has_checkpoint"`
	CheckpointIndex uint64 `json:"checkpoint_index"`
	CheckpointStep  int    `json:"checkpoint_step"`
}

// normalize fills request defaults in place.
func (r *RunRequest) normalize() {
	if r.Preset == "" {
		r.Preset = "quick"
	}
	if r.Selector == "" {
		r.Selector = "accuracy"
	}
	if r.Alpha == 0 {
		r.Alpha = 10
	}
	if r.Norm == "" {
		r.Norm = "standard"
	}
	if r.Async {
		if r.Duration == 0 {
			r.Duration = 120
		}
		if r.MinCycle == 0 {
			r.MinCycle = 1
		}
		if r.MaxCycle == 0 {
			r.MaxCycle = 8
		}
		if r.NetDelay == 0 {
			r.NetDelay = 0.5
		}
	}
}

// compaction maps the request's compaction fields to the engine config.
// SpillDir stays empty by design: requests must not name server filesystem
// paths, and the live suffix plus epoch summaries are what a served run's
// stream and checkpoints expose anyway.
func (r *RunRequest) compaction() dag.Compaction {
	return sim.CompactionByWidth(r.CompactWidth, r.CompactLive)
}

// Configs resolves the request's names (the tables live in internal/sim) and
// assembles the configuration of the engine it asks for — exactly one of the
// returned configs is non-nil — drawing workers from pool. cmd/specdag turns
// its flags into a RunRequest and comes through here too, so the command
// line and the daemon cannot drift apart.
func (r *RunRequest) Configs(pool *par.Budget) (sim.Spec, *core.Config, *core.AsyncConfig, error) {
	preset, err := sim.PresetByName(r.Preset)
	if err != nil {
		return sim.Spec{}, nil, nil, err
	}
	sel, err := sim.SelectorByName(r.Selector, r.Norm, r.Alpha, r.DepthMin, r.DepthMax)
	if err != nil {
		return sim.Spec{}, nil, nil, err
	}
	spec, err := sim.SpecByName(r.Dataset, preset, r.Seed)
	if err != nil {
		return sim.Spec{}, nil, nil, err
	}
	if r.Async {
		return spec, nil, &core.AsyncConfig{
			Duration:     r.Duration,
			MinCycle:     r.MinCycle,
			MaxCycle:     r.MaxCycle,
			NetworkDelay: r.NetDelay,
			Local:        spec.Local,
			Arch:         spec.Arch,
			Selector:     sel,
			Workers:      r.Workers,
			Pool:         pool,
			Seed:         r.Seed,
			Compaction:   r.compaction(),
		}, nil
	}
	cfg := &core.Config{
		Rounds:          preset.Rounds(),
		ClientsPerRound: preset.ClientsPerRound(),
		Local:           spec.Local,
		Arch:            spec.Arch,
		Selector:        sel,
		Workers:         r.Workers,
		Pool:            pool,
		Seed:            r.Seed,
		Compaction:      r.compaction(),
	}
	if r.Rounds > 0 {
		cfg.Rounds = r.Rounds
	}
	if r.ClientsPerRound > 0 {
		cfg.ClientsPerRound = r.ClientsPerRound
	}
	return spec, cfg, nil, nil
}

// buildEngine constructs the run's engine — fresh when ckpt is nil, resumed
// from the checkpoint otherwise. Construction is a pure function of the
// request (and the server's shared budget), which is what makes pause,
// resume and daemon restarts bit-identical to an uninterrupted run.
func (s *Server) buildEngine(req *RunRequest, ckpt engine.Checkpoint) (hosted, error) {
	spec, cfg, acfg, err := req.Configs(s.pool)
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if ckpt != nil {
		if _, err := ckpt.WriteTo(&blob); err != nil {
			return nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
		}
	}
	switch {
	case acfg != nil && ckpt != nil:
		return core.ResumeAsyncSimulation(spec.Fed, *acfg, &blob)
	case acfg != nil:
		return core.NewAsyncSimulation(spec.Fed, *acfg)
	case ckpt != nil:
		return core.ResumeSimulation(spec.Fed, *cfg, &blob)
	}
	return core.NewSimulation(spec.Fed, *cfg)
}

// Info summarizes the request for an event log's start frame — the one key
// set every producer of SDE2 logs records (the daemon and cmd/specdag
// -events), with the request's own spellings as values.
func (r *RunRequest) Info() wire.RunInfo {
	cfg := map[string]string{
		"dataset":  r.Dataset,
		"preset":   r.Preset,
		"selector": r.Selector,
		"alpha":    strconv.FormatFloat(r.Alpha, 'g', -1, 64),
		"norm":     r.Norm,
	}
	if r.DepthMax > 0 {
		cfg["depth_min"] = strconv.Itoa(r.DepthMin)
		cfg["depth_max"] = strconv.Itoa(r.DepthMax)
	}
	if c := r.compaction(); c.Enabled() {
		cfg["compact_width"] = strconv.Itoa(c.Width)
		cfg["compact_live"] = strconv.Itoa(c.Live)
	}
	if r.Async {
		cfg["duration"] = strconv.FormatFloat(r.Duration, 'g', -1, 64)
		cfg["min_cycle"] = strconv.FormatFloat(r.MinCycle, 'g', -1, 64)
		cfg["max_cycle"] = strconv.FormatFloat(r.MaxCycle, 'g', -1, 64)
		cfg["net_delay"] = strconv.FormatFloat(r.NetDelay, 'g', -1, 64)
	} else {
		if r.Rounds > 0 {
			cfg["rounds"] = strconv.Itoa(r.Rounds)
		}
		if r.ClientsPerRound > 0 {
			cfg["clients_per_round"] = strconv.Itoa(r.ClientsPerRound)
		}
	}
	return wire.RunInfo{Engine: engineName(r), Label: r.Label, Seed: r.Seed, Config: cfg}
}

// Submit registers and starts a run, returning its ID. It is the
// programmatic form of POST /runs (examples and tests drive the server
// in-process through it).
func (s *Server) Submit(req RunRequest) (int, error) {
	req.normalize()
	// A server at its quota answers before paying for the dataset and the
	// simulation; the check that counts is the one below, taken under the
	// same lock as the registration, so racing submits cannot both pass.
	s.mu.Lock()
	err := s.checkQuotaLocked(req.Tenant)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	eng, err := s.buildEngine(&req, nil)
	if err != nil {
		return 0, err
	}
	return s.register(req, eng)
}

// register is the second half of Submit: it enters a normalized request in
// the registry under the next ID, quota permitting, opens its event log and
// launches eng as its engine.
func (s *Server) register(req RunRequest, eng hosted) (int, error) {
	s.mu.Lock()
	if err := s.checkQuotaLocked(req.Tenant); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	id := s.nextID
	s.nextID++
	// The log exists before the run is visible — handlers read r.b without a
	// lock — and its spill file is named after the ID taken here.
	r := &run{id: id, req: req, b: s.newLog(id, 0)}
	// Held until the job is submitted: a lifecycle call that finds the run in
	// the registry waits here and then finds it running, with its job.
	r.mu.Lock()
	defer r.mu.Unlock()
	s.runs[id] = r
	s.mu.Unlock()
	info := req.Info()
	r.b.Append(wire.Frame{Kind: wire.KindStart, Start: &info})
	if err := s.launch(r, eng); err != nil {
		return 0, err
	}
	return id, nil
}

// newLog creates the event log of run id, starting at the given index: the
// ring, mirrored to a fresh spill file when the server has a spill directory.
func (s *Server) newLog(id int, start uint64) *Broadcaster {
	b := NewBroadcaster(s.cfg.Ring, start)
	if s.cfg.SpillDir != "" {
		// Spill failure degrades to drop semantics, it never blocks a run.
		if err := os.MkdirAll(s.cfg.SpillDir, 0o755); err == nil {
			b.EnableSpill(filepath.Join(s.cfg.SpillDir, fmt.Sprintf("run-%d.sde", id)))
		}
	}
	return b
}

// checkQuotaLocked enforces Config.MaxRuns and MaxRunsPerTenant against the
// currently active (running or paused) runs. Callers hold s.mu.
func (s *Server) checkQuotaLocked(tenant string) error {
	if s.cfg.MaxRuns <= 0 && s.cfg.MaxRunsPerTenant <= 0 {
		return nil
	}
	total, mine := 0, 0
	for _, r := range s.runs {
		r.mu.Lock()
		active := r.state == StateRunning || r.state == StatePaused
		rt := r.req.Tenant
		r.mu.Unlock()
		if !active {
			continue
		}
		total++
		if rt == tenant {
			mine++
		}
	}
	if s.cfg.MaxRuns > 0 && total >= s.cfg.MaxRuns {
		return &quotaError{scope: "server", limit: s.cfg.MaxRuns}
	}
	if s.cfg.MaxRunsPerTenant > 0 && mine >= s.cfg.MaxRunsPerTenant {
		return &quotaError{scope: "tenant", tenant: tenant, limit: s.cfg.MaxRunsPerTenant}
	}
	return nil
}

// quotaError is a submit rejected by an active-run cap (HTTP 429). It is not
// a lifecycle conflict: the request is well-formed and will succeed once an
// active run settles, which is what Retry-After communicates.
type quotaError struct {
	scope  string // "server" | "tenant"
	tenant string
	limit  int
}

func (e *quotaError) Error() string {
	if e.scope == "tenant" {
		return fmt.Sprintf("serve: tenant %q is at its active-run quota (%d) — retry after a run settles", e.tenant, e.limit)
	}
	return fmt.Sprintf("serve: server is at its active-run quota (%d) — retry after a run settles", e.limit)
}

// launch submits the run's engine to the scheduler as a job and marks the run
// running — for a new run and for every resumed one. Callers hold r.mu, so
// nobody sees a running run without its job.
func (s *Server) launch(r *run, eng hosted) error {
	every := r.req.CheckpointEvery
	if every <= 0 {
		every = s.cfg.CheckpointEvery
	}
	h, err := s.sched.Submit(engine.Job{
		Engine:   eng,
		Name:     fmt.Sprintf("run-%d", r.id),
		Priority: r.req.Priority,
		Opts: []engine.Option{
			engine.WithHooks(r.b.Hooks()),
			engine.WithHooks(engine.Hooks{OnRound: func(engine.RoundEvent) {
				r.mu.Lock()
				r.steps++
				r.mu.Unlock()
			}}),
			engine.WithCheckpoints(every, func(c engine.Checkpoint) error {
				r.keep(c)
				return nil
			}),
		},
		OnSettle: func(err error) { s.settle(r, err) },
	})
	if err != nil {
		err = fmt.Errorf("serve: submitting run %d: %w", r.id, err)
		r.end(StateFailed, err.Error())
		return err
	}
	r.state, r.handle, r.eng = StateRunning, h, eng
	return nil
}

// settle records how the run's job ended; it is the job's OnSettle. The
// scheduler has let go of the job and the engine sits at a unit boundary. A
// job that Pause stopped has not ended the run: its engine is checkpointed
// and the run is paused, with its log left open — subscribers block until
// Resume or Cancel. Every other outcome ends the run. Either way the record
// drops its way to the engine, so the federation, the client models and the
// tangle become collectable: what a run that is not running keeps is its
// request, its event log and its last checkpoint.
func (s *Server) settle(r *run, err error) {
	r.mu.Lock()
	eng, pausing := r.eng, r.pausing
	r.mu.Unlock()
	state, msg := StateDone, ""
	switch {
	case err == nil:
	case !errors.Is(err, engine.ErrJobCanceled):
		state, msg = StateFailed, err.Error()
	case !pausing:
		state, msg = StateCanceled, "canceled"
	default:
		// No lock while the engine is captured: the job is gone, so nothing
		// else appends to the log or touches the engine.
		state = StatePaused
		r.keep(eng.Checkpoint())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handle, r.eng, r.pausing = nil, nil, false
	if state == StatePaused {
		r.state = StatePaused
		return
	}
	r.end(state, msg)
}

// end is the one terminal transition of a run: the state and the error, the
// End frame, the closed log. Callers hold r.mu and know the run has not ended
// yet.
func (r *run) end(state, msg string) {
	r.state, r.err = state, msg
	r.b.Append(wire.Frame{Kind: wire.KindEnd, End: &wire.End{Steps: r.steps, Completed: msg == "", Err: msg}})
	r.b.Close()
}

// keep installs c as the run's latest checkpoint and announces it with a
// Checkpoint frame: the one way a hosted run's checkpoints arrive, from the
// cadence (the engine loop, between units) and from a pause (settle, after
// the job has stopped). Either way the run's step count is the checkpoint's
// and NextIndex() is exactly the index the checkpoint resumes from. Nothing
// is encoded: c is a capture, written only when someone reads it.
func (r *run) keep(c engine.Checkpoint) {
	r.mu.Lock()
	r.ckpt, r.ckptIndex, r.ckptStep = c, r.b.NextIndex(), r.steps
	step := r.steps
	r.mu.Unlock()
	r.b.Append(wire.Frame{Kind: wire.KindCheckpoint, Checkpoint: &wire.Checkpoint{Step: step, Size: c.Size()}})
}

// status snapshots a run's externally visible state.
func (r *run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunStatus{
		ID:              r.id,
		Label:           r.req.Label,
		Engine:          engineName(&r.req),
		Dataset:         r.req.Dataset,
		Seed:            r.req.Seed,
		State:           r.state,
		Steps:           r.steps,
		Err:             r.err,
		NextIndex:       r.b.NextIndex(),
		EarliestIndex:   r.b.Earliest(),
		HasCheckpoint:   r.ckpt != nil,
		CheckpointIndex: r.ckptIndex,
		CheckpointStep:  r.ckptStep,
	}
}

func engineName(req *RunRequest) string {
	if req.Async {
		return "specdag-async"
	}
	return "specdag"
}

// Pause stops the run at its next unit boundary and checkpoints it; the
// programmatic form of POST /runs/{id}/pause. It cancels the run's scheduler
// job and returns once settle has taken the checkpoint, with the
// checkpoint's event index. A paused run keeps no engine: Resume rebuilds it
// from the checkpoint. If ctx ends first Pause returns ctx.Err(), but the
// request stands — the job is already stopping, and the run turns paused at
// its unit boundary.
func (s *Server) Pause(ctx context.Context, id int) (uint64, error) {
	r, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	if r.state != StateRunning {
		defer r.mu.Unlock()
		return 0, r.conflict("pause")
	}
	h := r.handle
	r.pausing = true
	r.mu.Unlock()
	if err := h.Cancel(ctx); err != nil && !errors.Is(err, engine.ErrJobSettled) {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StatePaused {
		// The job stopped for another reason before it could stop for this one.
		return 0, fmt.Errorf("serve: run %d settled as %s instead of pausing: %s", id, r.state, r.err)
	}
	return r.ckptIndex, nil
}

// Resume restarts a paused run; the programmatic form of
// POST /runs/{id}/resume. The engine is rebuilt from the request and the
// checkpoint and submitted as a new job — whether the run was paused a moment
// ago or by a daemon that has since restarted — and the resumed run's
// remaining event stream is bit-identical to an uninterrupted run's.
func (s *Server) Resume(id int) error {
	r, err := s.lookup(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.state != StatePaused {
		defer r.mu.Unlock()
		return r.conflict("resume")
	}
	ckpt := r.ckpt
	r.mu.Unlock()
	eng, err := s.buildEngine(&r.req, ckpt)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StatePaused {
		// Canceled, or resumed by someone else, during the rebuild.
		return r.conflict("resume")
	}
	if err != nil {
		r.end(StateFailed, err.Error())
		return fmt.Errorf("serve: resuming run %d: %w", id, err)
	}
	return s.launch(r, eng)
}

// Cancel stops a run for good; the programmatic form of
// POST /runs/{id}/cancel. A running run's job is canceled and settle ends the
// run; a paused run has no job, and ends here.
func (s *Server) Cancel(ctx context.Context, id int) error {
	r, err := s.lookup(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateRunning {
		h := r.handle
		r.mu.Unlock()
		// settle has recorded the outcome and closed the log when this returns.
		err := h.Cancel(ctx)
		r.mu.Lock()
		if err != nil && !errors.Is(err, engine.ErrJobSettled) {
			return err
		}
		if err == nil && r.state != StatePaused {
			return nil
		}
		// The job had stopped already, or stopped for a Pause in flight: a run
		// that came out of that paused is still to be canceled.
	}
	if r.state != StatePaused {
		return r.conflict("cancel")
	}
	r.end(StateCanceled, "canceled")
	return nil
}

// stateError is a lifecycle conflict (HTTP 409).
type stateError struct {
	id    int
	state string
	want  string
}

func (e *stateError) Error() string {
	return fmt.Sprintf("serve: cannot %s run %d in state %s", e.want, e.id, e.state)
}

// conflict is the error of a lifecycle call the run's state refuses. Callers
// hold r.mu.
func (r *run) conflict(want string) error {
	return &stateError{id: r.id, state: r.state, want: want}
}

// notFoundError is an unknown run ID (HTTP 404).
type notFoundError struct{ id int }

func (e *notFoundError) Error() string { return fmt.Sprintf("serve: no run %d", e.id) }

func (s *Server) lookup(id int) (*run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, &notFoundError{id: id}
	}
	return r, nil
}

// sorted returns the registered runs ordered by ID.
func (s *Server) sorted() []*run {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	return runs
}

// Shutdown stops the server's runs: running ones are paused to a
// checkpoint, and — when Config.Dir is set — the checkpoints and a manifest
// are persisted so Restore can re-host everything after a restart. HTTP
// listeners are the caller's to close (the daemon shuts its http.Server down
// around this).
func (s *Server) Shutdown(ctx context.Context) error {
	var firstErr error
	for _, r := range s.sorted() {
		r.mu.Lock()
		running := r.state == StateRunning
		r.mu.Unlock()
		if !running {
			continue
		}
		if _, err := s.Pause(ctx, r.id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// No run has a job any more; stop the scheduler's serve loop.
	s.stopSched()
	done := make(chan struct{})
	// Joiner for the scheduler supervisor; WaitGroup has no context-aware wait.
	//speclint:allow budget short-lived shutdown joiner, exits when the supervisor drains
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.cfg.Dir != "" {
		if err := s.persist(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// manifest is the on-disk index of persisted runs (Config.Dir).
type manifest struct {
	NextID int             `json:"next_id"`
	Runs   []manifestEntry `json:"runs"`
}

type manifestEntry struct {
	ID              int        `json:"id"`
	Request         RunRequest `json:"request"`
	State           string     `json:"state"`
	Steps           int        `json:"steps"`
	Err             string     `json:"err,omitempty"` // how a terminal run ended; empty if it completed
	CheckpointFile  string     `json:"checkpoint_file,omitempty"`
	CheckpointIndex uint64     `json:"checkpoint_index"`
	CheckpointStep  int        `json:"checkpoint_step"`
}

// persist writes every paused run's checkpoint and the manifest to Dir, each
// through engine.WriteAtomic: a crash mid-shutdown leaves the previous file
// intact instead of a truncated one that Restore would refuse.
func (s *Server) persist() error {
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating checkpoint dir: %w", err)
	}
	s.mu.Lock()
	m := manifest{NextID: s.nextID}
	s.mu.Unlock()
	for _, r := range s.sorted() {
		r.mu.Lock()
		e := manifestEntry{
			ID:              r.id,
			Request:         r.req,
			State:           r.state,
			Steps:           r.steps,
			Err:             r.err,
			CheckpointIndex: r.ckptIndex,
			CheckpointStep:  r.ckptStep,
		}
		ckpt := r.ckpt
		r.mu.Unlock()
		if e.State == StatePaused && ckpt != nil {
			ext := ".sdc"
			if e.Request.Async {
				ext = ".sda"
			}
			e.CheckpointFile = fmt.Sprintf("run-%d%s", e.ID, ext)
			if err := engine.WriteAtomic(filepath.Join(s.cfg.Dir, e.CheckpointFile), ckpt); err != nil {
				return fmt.Errorf("serve: persisting run %d: %w", e.ID, err)
			}
		}
		m.Runs = append(m.Runs, e)
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := engine.WriteAtomic(filepath.Join(s.cfg.Dir, "runs.json"), bytes.NewReader(blob)); err != nil {
		return fmt.Errorf("serve: persisting manifest: %w", err)
	}
	return nil
}

// Restore re-registers the runs a previous daemon persisted on shutdown.
// Paused runs come back paused, with their checkpoints loaded and their
// event logs restarting at the checkpoint index (earlier frames are gone
// with the old process — subscribers resume from the checkpoint, which is
// the snapshot-semantics recovery the format is built around). Terminal
// runs come back as closed status records, each ending as it ended: its
// state, its error and an End frame saying so. Missing manifest is not an
// error: a fresh Dir restores nothing.
func (s *Server) Restore() (int, error) {
	if s.cfg.Dir == "" {
		return 0, nil
	}
	blob, err := os.ReadFile(filepath.Join(s.cfg.Dir, "runs.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("serve: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return 0, fmt.Errorf("serve: decoding manifest: %w", err)
	}
	restored := 0
	for _, e := range m.Runs {
		e.Request.normalize()
		r := &run{
			id:       e.ID,
			req:      e.Request,
			state:    e.State,
			steps:    e.Steps,
			ckptStep: e.CheckpointStep,
		}
		switch e.State {
		case StatePaused:
			if e.CheckpointFile == "" {
				continue
			}
			ckpt, err := os.ReadFile(filepath.Join(s.cfg.Dir, e.CheckpointFile))
			if err != nil {
				return restored, fmt.Errorf("serve: reading run %d checkpoint: %w", e.ID, err)
			}
			r.ckpt = checkpointFile(ckpt)
			// The old process's spill is stale (its frames predate the
			// checkpoint); the reborn log spills to a fresh file.
			r.b = s.newLog(e.ID, e.CheckpointIndex)
			// A fresh start frame anchors the reborn log at the resume
			// index, so late subscribers still learn the run identity.
			info := e.Request.Info()
			r.b.Append(wire.Frame{Kind: wire.KindStart, Start: &info})
			r.ckptIndex = r.b.NextIndex()
		case StateRunning:
			// The old process died before pausing it; nothing to restore.
			continue
		default:
			// A terminal run ends again as it ended; a manifest that kept no
			// error says so only for a run that did not complete.
			msg := e.Err
			if msg == "" && e.State != StateDone {
				msg = "terminated before daemon restart"
			}
			r.b = NewBroadcaster(s.cfg.Ring, 0)
			r.end(e.State, msg)
		}
		s.mu.Lock()
		s.runs[r.id] = r
		if r.id >= s.nextID {
			s.nextID = r.id + 1
		}
		if m.NextID > s.nextID {
			s.nextID = m.NextID
		}
		s.mu.Unlock()
		restored++
	}
	return restored, nil
}
