// Command specdagd is the Specializing DAG experiment daemon: it hosts many
// concurrent DAG-FL runs on one shared worker budget and serves their
// lifecycle and live SDE2 event streams over HTTP.
//
//	specdagd -addr :9477 -workers 8 -dir /var/lib/specdagd
//
// Submit a run and watch it:
//
//	curl -d '{"dataset":"fmnist","seed":1,"label":"demo"}' localhost:9477/runs
//	curl -o demo.sde 'localhost:9477/runs/1/events?from=0'   # blocks until done
//	dagstat -in demo.sde
//
// A paused run is a checkpoint, not a parked engine: POST /runs/{id}/pause
// stops the run at its next unit boundary, keeps the checkpoint and frees the
// engine's memory; POST /runs/{id}/resume rebuilds the engine from it and
// continues bit-identically. On SIGTERM/SIGINT the daemon pauses every
// running run the same way, and — when -dir is set — persists the checkpoints
// and a manifest, so the next boot finds the runs as this one left them:
// paused, and resumed by the same call.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/serve"
)

func main() {
	addr, cfg, grace, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "specdagd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		err = run(ctx, ln, cfg, grace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "specdagd:", err)
		os.Exit(1)
	}
}

// parseFlags is the one flag→config function. Every error but flag.ErrHelp
// is a usage error.
func parseFlags(args []string) (addr string, cfg serve.Config, grace time.Duration, err error) {
	fs := flag.NewFlagSet("specdagd", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", "127.0.0.1:9477", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "shared worker budget for all hosted runs (0 = NumCPU)")
	fs.IntVar(&cfg.Ring, "ring", 0, fmt.Sprintf("most frames a subscriber may lag before it sees a gap; each run's ring grows up to it as its log grows (0 = default, %d)", serve.DefaultRingSize))
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 25, "default checkpoint cadence in engine units")
	fs.IntVar(&cfg.Quantum, "quantum", 0, "scheduler dispatch quantum in engine units per run (0 = default)")
	fs.StringVar(&cfg.Dir, "dir", "", "state directory: persist paused runs on shutdown, restore them on boot")
	fs.DurationVar(&grace, "grace", 30*time.Second, "shutdown grace period for pausing runs")
	fs.StringVar(&cfg.SpillDir, "spill-dir", "", "event-log spill directory: mirror every run's SDE2 stream to disk so a lapped subscriber replays from file instead of seeing a gap (empty disables)")
	fs.IntVar(&cfg.MaxRuns, "max-runs", 0, "cap on concurrently active (running or paused) runs; submits beyond it answer 429 (0 = unlimited)")
	fs.IntVar(&cfg.MaxRunsPerTenant, "max-runs-per-tenant", 0, "per-tenant cap on concurrently active runs, keyed by the request's tenant field (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return "", serve.Config{}, 0, err
	}
	// 0 is each of these flags' "default" spelling; a negative value is a
	// typo, not a second one (-workers -3 must not mean NumCPU).
	for _, f := range []struct {
		name  string
		value int
	}{
		{"workers", cfg.Workers},
		{"ring", cfg.Ring},
		{"quantum", cfg.Quantum},
		{"max-runs", cfg.MaxRuns},
		{"max-runs-per-tenant", cfg.MaxRunsPerTenant},
	} {
		if f.value < 0 {
			return "", serve.Config{}, 0, fmt.Errorf("-%s must not be negative, got %d", f.name, f.value)
		}
	}
	// These two have no "default" spelling: a cadence below one unit and a
	// grace period that is already over are typos.
	if cfg.CheckpointEvery < 1 {
		return "", serve.Config{}, 0, fmt.Errorf("-checkpoint-every must be at least 1, got %d", cfg.CheckpointEvery)
	}
	if grace <= 0 {
		return "", serve.Config{}, 0, fmt.Errorf("-grace must be positive, got %v", grace)
	}
	return addr, cfg, grace, nil
}

// run serves on ln until ctx ends, then pauses every run to a checkpoint
// within the grace period and, with a state directory, persists them.
func run(ctx context.Context, ln net.Listener, cfg serve.Config, grace time.Duration) error {
	defer ln.Close() // for the paths that return before Serve, which closes it itself
	s := serve.NewServer(cfg)
	dir := cfg.Dir
	if dir != "" {
		n, err := s.Restore()
		if err != nil {
			return fmt.Errorf("restoring state from %s: %w", dir, err)
		}
		if n > 0 {
			log.Printf("restored %d runs from %s", n, dir)
		}
	}

	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	// The listener's accept loop; joined via errc before run returns.
	//speclint:allow budget http.Server owns its goroutines; this one hands Serve's exit back to run
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Print(startupLine(ln.Addr(), cfg.Workers))

	select {
	case <-ctx.Done():
		log.Printf("stopping: pausing runs to checkpoints")
	case err := <-errc:
		return fmt.Errorf("serving on %s: %w", ln.Addr(), err)
	}

	// The grace period starts now; ctx is already over.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), grace)
	defer cancel()
	// Stop accepting new work first, then quiesce the runs: open event
	// streams end when their runs settle, so Shutdown order matters.
	shutErr := s.Shutdown(ctx)
	if shutErr != nil {
		log.Printf("pausing runs: %v", shutErr)
	}
	for _, st := range s.Statuses() {
		log.Printf("run %d (%s): %s at step %d", st.ID, st.Dataset, st.State, st.Steps)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("closing listener: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if dir != "" && shutErr == nil {
		log.Printf("state persisted to %s", dir)
	}
	return nil
}

// startupLine is the daemon's first log line. It names the kernels the
// process runs because timings from a host without AVX2 are timings of a
// different program (results are the same bits either way).
func startupLine(addr net.Addr, workers int) string {
	return fmt.Sprintf("specdagd listening on %s (workers=%d, kernels=%s)", addr, workers, mathx.Backend())
}
