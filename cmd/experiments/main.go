// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) as markdown tables on stdout.
//
//	experiments -exp all            # everything, quick scale
//	experiments -exp table2 -full   # one experiment at paper scale
//	experiments -exp fig12          # poisoning curves (fig12 == fig13 runs)
//
// Experiment IDs: table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 ablations gossip visibility faults all, plus longhaul —
// the bounded-memory endurance run (epoch compaction + parameter spill),
// which is not part of "all".
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
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/profiling"
	"github.com/specdag/specdag/internal/sim"
)

func main() {
	// SPECDAG_WORKERS and SPECDAG_GRID_DIR are the defaults of -workers and
	// -grid-dir; a malformed value is a usage error like a malformed flag.
	env, err := sim.EnvFromOS()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := run(env); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(env sim.Env) error {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1, table2, fig5..fig15, ablations, gossip, visibility, faults, all)")
		full       = flag.Bool("full", false, "paper-scale runs (100 rounds, full federations)")
		seed       = flag.Int64("seed", 42, "root random seed")
		workers    = flag.Int("workers", 0, "total worker budget shared by sweep cells and round engines (default $SPECDAG_WORKERS; 0 = NumCPU); results are identical for any value")
		gridDir    = flag.String("grid-dir", "", "per-cell checkpoint directory for sweep grids: a crashed sweep rerun resumes its cells instead of recomputing them (default $SPECDAG_GRID_DIR; empty disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

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

	if *workers > 0 {
		env.Pool = par.NewBudget(*workers)
	}
	if *gridDir != "" {
		env.GridDir = *gridDir
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	preset := sim.Quick
	if *full {
		preset = sim.Full
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
			"fig10", "fig12", "fig14", "fig15", "ablations", "gossip", "visibility", "faults"}
		// fig11 shares runs with fig10; fig13 with fig12.
	}

	for _, id := range ids {
		start := time.Now()
		out, err := runOne(ctx, env, strings.TrimSpace(id), preset, *seed)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted — partial sweep discarded")
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v at %s scale)\n\n", id, time.Since(start).Round(time.Millisecond), preset)
	}
	return nil
}

func runOne(ctx context.Context, env sim.Env, id string, preset sim.Preset, seed int64) (string, error) {
	switch id {
	case "table1":
		return sim.Table1(), nil
	case "table2":
		rows, err := sim.Table2(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderTable2(rows), nil
	case "fig5":
		res, err := sim.Figure5(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFig5(res), nil
	case "fig6":
		curves, err := sim.Figure6(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderCurves("Figure 6: accuracy by alpha (standard normalization)", curves), nil
	case "fig7":
		res, err := sim.Figure7(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFig7(res), nil
	case "fig8":
		curves, err := sim.Figure8(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderCurves("Figure 8: accuracy by alpha (relaxed clusters)", curves), nil
	case "fig9":
		res, err := sim.Figure9(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFig9(res), nil
	case "fig10", "fig11":
		curves, err := sim.Figure10And11(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFig1011(curves), nil
	case "fig12", "fig13":
		curves, err := sim.Figure12And13(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderPoison(curves), nil
	case "fig14":
		res, err := sim.Figure14(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFig14(res), nil
	case "fig15":
		curves, err := sim.Figure15(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFig15(curves), nil
	case "visibility":
		rows, err := sim.VisibilitySweep(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderAblation("reveal delay (non-ideal broadcast)", rows), nil
	case "faults":
		rows, err := sim.FaultSweep(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderFaults(rows), nil
	case "longhaul":
		// The bounded-memory endurance run (ROADMAP item 2): epoch compaction
		// with parameter spill. Quick scale finishes in seconds; -full is the
		// ~10^6-event acceptance run and takes minutes. Not part of "all".
		dir, err := os.MkdirTemp("", "specdag-longhaul-*")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		rep, err := sim.LongHaul(ctx, env, preset, dir, seed)
		if err != nil {
			return "", err
		}
		return sim.RenderLongHaul(rep), nil
	case "gossip":
		curves, err := sim.GossipComparison(ctx, env, preset, seed)
		if err != nil {
			return "", err
		}
		return "### Extension: gossip learning vs FedAvg vs DAG (FMNIST-clustered)\n\n" +
			sim.RenderFig1011(curves), nil
	case "ablations":
		var b strings.Builder
		type abl struct {
			name string
			run  func(context.Context, sim.Env, sim.Preset, int64) ([]sim.AblationRow, error)
		}
		for _, a := range []abl{
			{"normalization (alpha=1)", sim.AblationNormalization},
			{"publish gate", sim.AblationPublishGate},
			{"walk entry depth", sim.AblationWalkDepth},
			{"reference walks", sim.AblationReferenceWalks},
			{"selector family", sim.AblationSelectors},
			{"partial layer sharing", sim.AblationPartialSharing},
		} {
			rows, err := a.run(ctx, env, preset, seed)
			if err != nil {
				return "", err
			}
			b.WriteString(sim.RenderAblation(a.name, rows))
			b.WriteString("\n")
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", id)
	}
}
