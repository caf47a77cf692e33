// Command specdag runs a single Specializing DAG simulation with
// configurable dataset, tip selector, and poisoning scenario, printing
// per-round progress and the final specialization metrics.
//
// The run is driven through the unified run API: Ctrl-C cancels it at round
// (or event) granularity — partial metrics are still reported — -checkpoint
// persists the full simulation state periodically and at exit, and -resume
// continues a checkpointed run bit-identically to one that was never
// interrupted. -async switches to the event-driven engine (§5.3.3: every
// client trains at its own pace, no rounds); its checkpoints (format SDA3)
// resume the same way, at event granularity. -resume names, rather than
// reads, the gob-era SDC2/SDA2 files of the previous build generation.
//
// Examples:
//
//	specdag -dataset fmnist -alpha 10 -rounds 50
//	specdag -dataset poets -alpha 1 -norm dynamic
//	specdag -dataset fmnist-bywriter -poison-fraction 0.2 -poison-start 20
//	specdag -dataset fmnist -selector urts -dot tangle.dot
//	specdag -dataset fmnist -rounds 200 -checkpoint run.sdc   # ^C anytime…
//	specdag -dataset fmnist -rounds 200 -resume run.sdc       # …and continue
//	specdag -dataset fmnist -async -duration 300 -checkpoint run.sda
//	specdag -dataset fmnist -async -duration 300 -resume run.sda
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/profiling"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/wire"
	"github.com/specdag/specdag/internal/xrand"
)

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "specdag:", err)
		os.Exit(1)
	}
}

// plan is what the command line resolves to: the run as named (the flag set
// is the local form of specdagd's RunRequest, so it is parsed into one), the
// dataset it names, the configuration of exactly one engine, and the
// supervision options.
type plan struct {
	req  serve.RunRequest
	spec sim.Spec
	cfg  *core.Config      // round engine; nil with -async
	acfg *core.AsyncConfig // event engine; nil without -async

	every      int
	eventsFile string
	ckptFile   string
	ckptEvery  int
	resumeFile string
	dotFile    string
	saveFile   string
	cpuProfile string
	memProfile string
}

// parseFlags is the one flag→config function.
func parseFlags(args []string) (*plan, error) {
	var (
		p   plan
		req = &p.req
		fs  = flag.NewFlagSet("specdag", flag.ContinueOnError)
	)
	fs.StringVar(&req.Dataset, "dataset", "fmnist", "dataset: fmnist | fmnist-relaxed | fmnist-bywriter | poets | cifar100 | fedprox")
	fs.Float64Var(&req.Alpha, "alpha", 10, "specialization parameter of the accuracy walk")
	fs.StringVar(&req.Norm, "norm", "standard", "walk-weight normalization: standard | dynamic")
	fs.StringVar(&req.Selector, "selector", "accuracy", "tip selector: accuracy | weighted | urts | uniform")
	fs.IntVar(&req.Rounds, "rounds", 0, "training rounds (0 = preset default)")
	fs.IntVar(&req.ClientsPerRound, "clients-per-round", 0, "active clients per round (0 = preset default)")
	full := fs.Bool("full", false, "use paper-scale federation sizes")
	fs.Int64Var(&req.Seed, "seed", 42, "root random seed")
	poisonFraction := fs.Float64("poison-fraction", 0, "fraction of clients with flipped labels (3<->8)")
	poisonStart := fs.Int("poison-start", 0, "round at which poisoning begins")
	fs.IntVar(&req.Workers, "workers", 0, "size of the run's worker budget (0 = NumCPU); results are identical for any value")
	fs.IntVar(&p.every, "progress-every", 5, "print progress every N rounds")
	fs.StringVar(&p.dotFile, "dot", "", "write the final DAG in Graphviz format to this file")
	fs.StringVar(&p.saveFile, "save", "", "write the final DAG as a binary snapshot (inspect with dagstat)")
	fs.StringVar(&p.eventsFile, "events", "", "record the run's event stream to this SDE2 log file (inspect with dagstat)")
	fs.StringVar(&p.ckptFile, "checkpoint", "", "write a full simulation checkpoint to this file every -checkpoint-every rounds/events and at exit (resume with -resume)")
	fs.IntVar(&p.ckptEvery, "checkpoint-every", 10, "rounds (or events, with -async) between periodic checkpoints (with -checkpoint)")
	fs.StringVar(&p.resumeFile, "resume", "", "resume from a checkpoint written by -checkpoint (requires the same dataset/config flags)")
	fs.BoolVar(&req.Async, "async", false, "run the event-driven engine instead of synchronous rounds (§5.3.3)")
	fs.Float64Var(&req.Duration, "duration", 120, "simulated time horizon in seconds (with -async)")
	fs.Float64Var(&req.MinCycle, "min-cycle", 1, "fastest per-client training cycle time in simulated seconds (with -async)")
	fs.Float64Var(&req.MaxCycle, "max-cycle", 8, "slowest per-client training cycle time in simulated seconds (with -async)")
	fs.Float64Var(&req.NetDelay, "net-delay", 0.5, "broadcast propagation delay in simulated seconds (with -async)")
	faultScenario := fs.String("fault-scenario", "", "named fault schedule replacing the uniform -net-delay with jittered lossy per-link delivery: partition-heal | straggler-3x | churn-25 (with -async)")
	fs.IntVar(&req.DepthMin, "depth-min", 0, "shallowest walk entry depth for banded selectors (0 = start at genesis)")
	fs.IntVar(&req.DepthMax, "depth-max", 0, "deepest walk entry depth for banded selectors (0 = start at genesis; required for -compact-width)")
	fs.IntVar(&req.CompactWidth, "compact-width", 0, "epoch width in rounds for bounded-memory compaction (0 = keep everything; requires a depth-banded selector)")
	fs.IntVar(&req.CompactLive, "compact-live", 0, "trailing epochs kept live before freezing (0 = default, with -compact-width)")
	compactSpill := fs.String("compact-spill", "", "directory receiving frozen epochs' parameter spills (with -compact-width; empty = release without spilling)")
	fs.StringVar(&p.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if p.every < 1 {
		return nil, fmt.Errorf("-progress-every must be at least 1, got %d", p.every)
	}
	if p.ckptEvery < 1 {
		return nil, fmt.Errorf("-checkpoint-every must be at least 1, got %d", p.ckptEvery)
	}
	req.Preset = sim.Quick.String()
	if *full {
		req.Preset = sim.Full.String()
	}
	if req.CompactWidth <= 0 && (req.CompactLive > 0 || *compactSpill != "") {
		return nil, fmt.Errorf("-compact-live/-compact-spill require -compact-width")
	}
	if req.Async {
		if *poisonFraction > 0 {
			return nil, fmt.Errorf("-poison-fraction is not supported with -async (the event-driven engine has no attack scenario)")
		}
		if req.Rounds > 0 || req.ClientsPerRound > 0 {
			return nil, fmt.Errorf("-rounds/-clients-per-round do not apply with -async; the horizon is -duration (simulated seconds)")
		}
	} else if *faultScenario != "" {
		return nil, fmt.Errorf("-fault-scenario requires -async (the schedules are defined over the simulated-time horizon)")
	}
	// -workers sizes the run's one budget (0 = NumCPU). A negative value
	// flows through to config validation, which rejects it with a clear error.
	pool := par.NewBudget(req.Workers)
	if req.Workers == 0 {
		req.Workers = pool.Size()
	}

	var err error
	p.spec, p.cfg, p.acfg, err = req.Configs(pool)
	if err != nil {
		return nil, err
	}
	if p.acfg != nil {
		p.acfg.Compaction.SpillDir = *compactSpill
		if *faultScenario != "" {
			// The scenario's base link delay is -net-delay; the uniform
			// broadcast delay is replaced by the per-link delivery model.
			p.acfg.Faults, err = sim.FaultScenario(*faultScenario, req.Duration, req.NetDelay)
			if err != nil {
				return nil, err
			}
			p.acfg.NetworkDelay = 0
		}
		return &p, nil
	}
	p.cfg.Compaction.SpillDir = *compactSpill
	if *poisonFraction > 0 {
		p.cfg.Poison = core.PoisonConfig{
			Fraction:   *poisonFraction,
			FlipA:      3,
			FlipB:      8,
			StartRound: *poisonStart,
			Track:      true,
		}
	}
	return &p, nil
}

// simulation is what the supervision loop needs of either engine.
type simulation interface {
	engine.Engine
	engine.Snapshotter
	DAG() *dag.DAG
}

// open constructs the plan's engine: fresh, or resumed from -resume.
func (p *plan) open() (simulation, error) {
	var ckpt io.Reader
	if p.resumeFile != "" {
		f, err := os.Open(p.resumeFile)
		if err != nil {
			return nil, fmt.Errorf("opening checkpoint: %w", err)
		}
		defer f.Close()
		ckpt = f
	}
	if p.acfg != nil {
		if ckpt != nil {
			return core.ResumeAsyncSimulation(p.spec.Fed, *p.acfg, ckpt)
		}
		return core.NewAsyncSimulation(p.spec.Fed, *p.acfg)
	}
	if ckpt != nil {
		return core.ResumeSimulation(p.spec.Fed, *p.cfg, ckpt)
	}
	return core.NewSimulation(p.spec.Fed, *p.cfg)
}

// position names the unit boundary the engine stands at.
func position(s simulation) string {
	if a, ok := s.(*core.AsyncSimulation); ok {
		return fmt.Sprintf("event %d", a.Events())
	}
	return fmt.Sprintf("round %d", s.(*core.Simulation).Round())
}

// progress prints every -progress-every'th unit (and the round engine's last).
func (p *plan) progress(ev engine.RoundEvent) {
	due := (ev.Round+1)%p.every == 0
	switch d := ev.Detail.(type) {
	case *core.AsyncEvent:
		if due {
			fmt.Printf("event %4d  t=%6.1fs  client %3d  acc %.3f  dag %d\n",
				ev.Round+1, ev.Time, d.Client, ev.MeanAcc, ev.DAGSize)
		}
	case *core.RoundResult:
		if !due && ev.Round != p.cfg.Rounds-1 {
			return
		}
		line := fmt.Sprintf("round %3d  acc %.3f  loss %.3f  published %d/%d  dag %d",
			ev.Round+1, ev.MeanAcc, ev.MeanLoss, ev.Published, p.cfg.ClientsPerRound, ev.DAGSize)
		if p.cfg.Poison.Enabled() && ev.Round >= p.cfg.Poison.StartRound {
			line += fmt.Sprintf("  flipped %.1f%%", 100*d.MeanFlippedFrac())
		}
		fmt.Println(line)
	}
}

// run is the supervision loop of either engine: Ctrl-C cancels between
// units, -checkpoint persists state periodically and at exit, -resume
// continues bit-identically, -events records the stream.
func run(args []string) error {
	p, err := parseFlags(args)
	if err != nil {
		return err
	}
	if p.cpuProfile != "" {
		stop, err := profiling.StartCPU(p.cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if p.memProfile != "" {
		defer func() {
			if err := profiling.WriteHeap(p.memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "specdag:", err)
			}
		}()
	}

	if p.acfg != nil {
		fmt.Printf("async: duration %.0fs, cycle [%.1fs, %.1fs], network delay %.1fs\n",
			p.acfg.Duration, p.acfg.MinCycle, p.acfg.MaxCycle, p.acfg.NetworkDelay)
	} else {
		fmt.Printf("dataset=%s clients=%d clusters=%d selector=%s rounds=%d clients/round=%d seed=%d\n",
			p.spec.Name, len(p.spec.Fed.Clients), p.spec.Fed.NumClusters, p.cfg.Selector.Name(), p.cfg.Rounds, p.cfg.ClientsPerRound, p.req.Seed)
	}
	s, err := p.open()
	if err != nil {
		return err
	}
	if p.resumeFile != "" {
		fmt.Printf("resumed from %s at %s (%d transactions)\n", p.resumeFile, position(s), s.DAG().Size())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []engine.Option{engine.WithHooks(engine.Hooks{OnRound: p.progress})}
	if p.ckptFile != "" {
		opts = append(opts, engine.WithCheckpoints(p.ckptEvery, func(c engine.Checkpoint) error {
			return engine.WriteAtomic(p.ckptFile, c)
		}))
	}
	var rec *eventRecorder
	if p.eventsFile != "" {
		rec, err = newEventRecorder(p.eventsFile, p.req.Info())
		if err != nil {
			return err
		}
		opts = append(opts, engine.WithHooks(rec.log.Hooks()))
	}

	rep, runErr := engine.Run(ctx, s, opts...)
	if err := rec.finish(rep, runErr); err != nil {
		return err
	}
	canceled := errors.Is(runErr, context.Canceled)
	if runErr != nil && !canceled {
		return runErr
	}
	if p.ckptFile != "" {
		c := s.Checkpoint()
		if err := engine.WriteAtomic(p.ckptFile, c); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		fmt.Printf("wrote %d-byte checkpoint to %s (%s)\n", c.Size(), p.ckptFile, position(s))
	}
	if canceled {
		fmt.Printf("\ninterrupted after %s — partial metrics below", position(s))
		if p.ckptFile != "" {
			fmt.Printf("; continue with -resume %s", p.ckptFile)
		}
		fmt.Println()
	}

	poisoned := 0
	switch s := s.(type) {
	case *core.AsyncSimulation:
		fmt.Printf("\nprocessed %d events, %d transactions in the DAG\n", s.Events(), s.DAG().Size())
	case *core.Simulation:
		poisoned = len(s.PoisonedClients())
	}
	return reportDAG(s.DAG(), p.spec, p.req.Seed, poisoned, p.dotFile, p.saveFile)
}

// eventRecorder streams the run's events into an SDE2 log file (-events):
// the same frames a specdagd subscriber would receive, written locally.
type eventRecorder struct {
	f   *os.File
	log *wire.EventLog
}

// newEventRecorder opens the log file and writes its start frame.
func newEventRecorder(path string, info wire.RunInfo) (*eventRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating event log: %w", err)
	}
	l, err := wire.NewEventLog(f, info)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("starting event log: %w", err)
	}
	return &eventRecorder{f: f, log: l}, nil
}

// finish writes the end frame and closes the file, surfacing any write
// error the hook path had to swallow mid-run.
func (r *eventRecorder) finish(rep *engine.Report, runErr error) error {
	if r == nil {
		return nil
	}
	r.log.End(rep.Steps, rep.Completed, runErr)
	if err := r.log.Err(); err != nil {
		r.f.Close()
		return fmt.Errorf("writing event log: %w", err)
	}
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("closing event log: %w", err)
	}
	fmt.Printf("wrote event log %s (%d frames)\n", r.f.Name(), r.log.NextIndex())
	return nil
}

// reportDAG prints the final specialization metrics shared by both modes
// and handles the DOT/snapshot exports.
func reportDAG(d *dag.DAG, spec sim.Spec, seed int64, poisoned int, dotFile, saveFile string) error {
	fmt.Println()
	stats := d.Stats()
	fmt.Printf("final DAG: %d transactions, %d tips, max depth %d\n", stats.Transactions, stats.Tips, stats.MaxDepth)
	if epochs := d.FrozenEpochs(); len(epochs) > 0 {
		frozenTxs, spillBytes := 0, int64(0)
		for _, e := range epochs {
			frozenTxs += e.Txs
			spillBytes += e.SpillBytes
		}
		fmt.Printf("compaction: %d frozen epochs, %d frozen transactions (live floor %d), %d spill bytes\n",
			len(epochs), frozenTxs, d.LiveFloor(), spillBytes)
	}
	pureness := metrics.ApprovalPureness(d, spec.Fed.ClusterOf())
	fmt.Printf("approval pureness: %.3f (random base %.3f)\n", pureness, spec.Fed.BasePureness())

	g := metrics.BuildClientGraph(d)
	part := graphx.Louvain(g, xrand.New(seed+1))
	fmt.Printf("G_clients: %d nodes, modularity %.3f, %d communities, misclassification %.3f\n",
		g.NumNodes(), graphx.Modularity(g, part), graphx.NumCommunities(part),
		metrics.Misclassification(part, spec.Fed.ClusterOf()))

	if poisoned > 0 {
		fmt.Printf("poisoned clients: %d\n", poisoned)
	}

	if dotFile != "" {
		if err := os.WriteFile(dotFile, []byte(d.DOT()), 0o644); err != nil {
			return fmt.Errorf("writing DOT file: %w", err)
		}
		fmt.Printf("wrote DAG to %s\n", dotFile)
	}
	if saveFile != "" {
		f, err := os.Create(saveFile)
		if err != nil {
			return fmt.Errorf("creating snapshot: %w", err)
		}
		n, err := d.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
		fmt.Printf("wrote %d-byte snapshot to %s\n", n, saveFile)
	}
	return nil
}
