// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) as markdown tables on stdout.
//
//	experiments -exp all            # everything, quick scale
//	experiments -exp table2 -full   # one experiment at paper scale
//	experiments -exp fig12          # poisoning curves (fig13 names the same runs)
//
// The experiment IDs are the rows of sim.Experiments; -h lists them.
//
// Every experiment runs through the unified run API on one shared worker
// pool (-workers), so the whole sweep is interruptible: Ctrl-C cancels the
// in-flight runs at round granularity and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/profiling"
	"github.com/specdag/specdag/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a flag value no run can honour: exit 2, like a malformed flag.
type usageError struct{ error }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp        = fs.String("exp", "all", "comma-separated experiment ids: "+known(sim.Experiments()))
		full       = fs.Bool("full", false, "paper-scale runs (100 rounds, full federations)")
		seed       = fs.Int64("seed", 42, "root random seed")
		workers    = fs.Int("workers", 0, "total worker budget shared by sweep cells and round engines (0 = NumCPU); results are identical for any value")
		gridDir    = fs.String("grid-dir", "", "per-cell checkpoint directory for sweep grids: a crashed sweep rerun resumes its cells instead of recomputing them (empty disables)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits 2 inside Parse
	if *workers < 0 {
		// Dropping it would run on NumCPU: a typo'd sequential baseline must
		// not silently become a parallel run.
		return usageError{fmt.Errorf("-workers must not be negative, got %d", *workers)}
	}

	// The whole list resolves before the first run: a typo in the last ID
	// must not cost the minutes the earlier ones take at -full.
	exps, err := resolve(*exp)
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		stop, err := profiling.StartCPU(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := profiling.WriteHeap(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	env := sim.Env{Pool: par.NewBudget(*workers), GridDir: *gridDir}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	preset := sim.Quick
	if *full {
		preset = sim.Full
	}

	for _, e := range exps {
		start := time.Now()
		out, _, err := e.Run(ctx, env, preset, *seed)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted — partial sweep discarded")
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "(%s completed in %v at %s scale)\n\n", e.ID, time.Since(start).Round(time.Millisecond), preset)
	}
	return nil
}

// resolve turns an -exp list into table rows, in the order given and each
// once: an alias names its row, "all" every row not marked Extra.
func resolve(list string) ([]sim.Experiment, error) {
	table := sim.Experiments()
	var out []sim.Experiment
	picked := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		found := false
		for _, e := range table {
			if id == "all" && !e.Extra || id != "" && (id == e.ID || id == e.Alias) {
				found = true
				if !picked[e.ID] {
					picked[e.ID] = true
					out = append(out, e)
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (%s)", id, known(table))
		}
	}
	return out, nil
}

// known lists the IDs -exp accepts, for the flag help and the unknown-ID error.
func known(table []sim.Experiment) string {
	var all, extra []string
	for _, e := range table {
		id := e.ID
		if e.Alias != "" {
			id += "=" + e.Alias
		}
		if e.Extra {
			extra = append(extra, id)
		} else {
			all = append(all, id)
		}
	}
	return strings.Join(all, " ") + " all; not part of all: " + strings.Join(extra, " ")
}
