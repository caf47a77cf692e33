// Command dagstat inspects Specializing DAG artifacts: plain tangle
// snapshots (cmd/specdag -save, format SDG1), full simulation checkpoints
// of both engine kinds — synchronous rounds (format SDC3) and the
// event-driven engine (format SDA3), the resumable state behind specdag.Run —
// and SDE2 event logs (cmd/specdag -events, or a saved specdagd events
// download). Older generations of each are named, not read. For tangle-bearing artifacts it reports
// structural statistics, per-issuer activity, heaviest transactions by
// cumulative weight, and optional Graphviz export; for checkpoints it
// additionally shows the resume point; for event logs it counts frames by
// kind and shows the originating run's configuration and outcome.
//
//	specdag -dataset fmnist -rounds 30 -save tangle.sdg
//	dagstat -in tangle.sdg
//	dagstat -in tangle.sdg -top 5 -dot tangle.dot
//	specdag -dataset fmnist -rounds 200 -checkpoint run.sdc
//	dagstat -in run.sdc
//	specdag -dataset fmnist -async -duration 300 -checkpoint run.sda
//	dagstat -in run.sda
//	curl -o run.sde 'localhost:9477/runs/1/events?from=0'
//	dagstat -in run.sde
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/wire"
	"github.com/specdag/specdag/internal/xrand"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dagstat:", err)
		os.Exit(1)
	}
}

// run reports on the artifact named by -in, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dagstat", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "snapshot file written by specdag -save (required)")
		top     = fs.Int("top", 10, "show the N heaviest transactions")
		dotFile = fs.String("dot", "", "write Graphviz output to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	if *top < 0 {
		return fmt.Errorf("-top must not be negative, got %d", *top)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	// Sniff the magic: plain DAG snapshot (SDG1), full simulation
	// checkpoint (sync SDC / async SDA; core tells them apart and names older
	// generations) — all carrying a tangle to analyze — or an SDE event log,
	// which gets its own report (wire names older generations).
	br := bufio.NewReader(f)
	magic, err := br.Peek(4)
	if err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	var d *dag.DAG
	switch kind := string(magic[:3]); {
	case kind == "SDE":
		return eventLogStats(stdout, *in, br)
	case kind == "SDC" || kind == "SDA":
		info, ckptDAG, err := core.InspectCheckpoint(br)
		if err != nil {
			return err
		}
		d = ckptDAG
		if info.Kind == "async" {
			state := "in flight"
			if info.Done {
				state = "complete"
			}
			fmt.Fprintf(stdout, "async simulation checkpoint: seed %d, event %d (horizon %.0fs, %s), %d clients, %d pending txs — resume with specdag -async -resume\n",
				info.Seed, info.Events, info.Duration, state, info.Clients, info.Pending)
		} else {
			fmt.Fprintf(stdout, "simulation checkpoint: seed %d, round %d/%d, %d clients — resume with specdag -resume\n",
				info.Seed, info.Round, info.Rounds, info.Clients)
		}
		if info.FrozenEpochs > 0 {
			fmt.Fprintf(stdout, "compaction: %d frozen epochs, %d frozen transactions, %d spill bytes (live floor %d)\n",
				info.FrozenEpochs, info.FrozenTxs, info.SpillBytes, d.LiveFloor())
			epochs := d.FrozenEpochs()
			fmt.Fprintln(stdout, "  epoch |    ids    | txs | rounds  | mean acc | spill")
			for _, e := range epochs {
				spill := "-"
				if e.SpillFile != "" {
					spill = fmt.Sprintf("%s (%d B)", e.SpillFile, e.SpillBytes)
				}
				fmt.Fprintf(stdout, "  %5d | %4d-%-4d | %3d | %3d-%-3d | %8.3f | %s\n",
					e.Epoch, e.FirstID, e.LastID, e.Txs, e.MinRound, e.MaxRound, e.MeanTestAcc, spill)
			}
		}
	default:
		d, err = dag.ReadDAG(br)
		if err != nil {
			return err
		}
	}

	stats := d.Stats()
	fmt.Fprintf(stdout, "snapshot: %s\n", *in)
	fmt.Fprintf(stdout, "transactions: %d  tips: %d  max depth: %d\n", stats.Transactions, stats.Tips, stats.MaxDepth)

	// Per-issuer activity.
	published := map[int]int{}
	poisoned := 0
	var paramDim int
	for _, tx := range d.All() {
		if tx.IsGenesis() {
			paramDim = len(tx.Params)
			continue
		}
		published[tx.Issuer]++
		if tx.Meta.Poisoned {
			poisoned++
		}
	}
	fmt.Fprintf(stdout, "model parameters per transaction: %d\n", paramDim)
	fmt.Fprintf(stdout, "publishing clients: %d  poisoned transactions: %d\n", len(published), poisoned)

	// Community structure of the client graph.
	g := metrics.BuildClientGraph(d)
	if g.NumNodes() > 0 {
		part := graphx.Louvain(g, xrand.New(1))
		fmt.Fprintf(stdout, "G_clients: %d nodes, %d communities, modularity %.3f\n",
			g.NumNodes(), graphx.NumCommunities(part), graphx.Modularity(g, part))
	}

	// Heaviest transactions (classic cumulative weight). The sweep's bitset
	// costs O(n^2/64) memory over the live suffix; past a few hundred
	// thousand transactions that dwarfs the snapshot itself, so skip the
	// table rather than OOM on long-haul artifacts.
	const maxWeighable = 200_000
	if live := d.Size() - int(d.LiveFloor()); live > maxWeighable {
		fmt.Fprintf(stdout, "\nheaviest-transactions table skipped: %d live transactions exceed the %d sweep limit\n", live, maxWeighable)
		return writeDot(stdout, *dotFile, d)
	}
	weights := d.CumulativeWeights()
	type row struct {
		id dag.ID
		w  int
	}
	rows := make([]row, 0, len(weights))
	for id, w := range weights {
		rows = append(rows, row{id, w})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].w != rows[j].w {
			return rows[i].w > rows[j].w
		}
		return rows[i].id < rows[j].id
	})
	if *top > len(rows) {
		*top = len(rows)
	}
	scope := ""
	if d.LiveFloor() > 0 {
		scope = ", live suffix only"
	}
	fmt.Fprintf(stdout, "\nheaviest %d transactions (cumulative weight%s):\n", *top, scope)
	fmt.Fprintln(stdout, "  id | weight | issuer | round | test acc")
	for _, r := range rows[:*top] {
		tx := d.MustGet(r.id)
		fmt.Fprintf(stdout, "%4d | %6d | %6d | %5d | %.3f\n", tx.ID, r.w, tx.Issuer, tx.Round, tx.Meta.TestAcc)
	}

	return writeDot(stdout, *dotFile, d)
}

// writeDot handles the optional Graphviz export.
func writeDot(stdout io.Writer, path string, d *dag.DAG) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, []byte(d.DOT()), 0o644); err != nil {
		return fmt.Errorf("writing DOT file: %w", err)
	}
	fmt.Fprintf(stdout, "\nwrote Graphviz output to %s\n", path)
	return nil
}

// eventLogStats reports an SDE2 event log: the originating run's identity
// and configuration, frame counts by kind, the index range, and how (or
// whether) the run ended.
func eventLogStats(stdout io.Writer, name string, r io.Reader) error {
	wr, err := wire.NewReader(r)
	if err != nil {
		return err
	}
	var (
		counts      = map[wire.Kind]int{}
		total       int
		first, last uint64
		info        *wire.RunInfo
		end         *wire.End
	)
	for {
		f, err := wr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("frame %d: %w", total, err)
		}
		if total == 0 {
			first = f.Index
		}
		last = f.Index
		total++
		counts[f.Kind]++
		switch f.Kind {
		case wire.KindStart:
			info = f.Start
		case wire.KindEnd:
			end = f.End
		}
	}
	if total == 0 {
		return fmt.Errorf("%s: empty event log", name)
	}

	fmt.Fprintf(stdout, "event log: %s\n", name)
	if info != nil {
		fmt.Fprintf(stdout, "run: engine %s, seed %d", info.Engine, info.Seed)
		if info.Label != "" {
			fmt.Fprintf(stdout, ", label %q", info.Label)
		}
		fmt.Fprintln(stdout)
		keys := make([]string, 0, len(info.Config))
		for k := range info.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %s = %s\n", k, info.Config[k])
		}
	} else {
		fmt.Fprintln(stdout, "run: unknown (log starts mid-stream, no start frame)")
	}
	fmt.Fprintf(stdout, "frames: %d, indices [%d, %d]\n", total, first, last)
	for _, k := range []wire.Kind{wire.KindStart, wire.KindRound, wire.KindPublish, wire.KindProbe, wire.KindCheckpoint, wire.KindGap, wire.KindEnd} {
		if counts[k] > 0 {
			fmt.Fprintf(stdout, "  %-10s %d\n", k, counts[k])
		}
	}
	switch {
	case end == nil:
		fmt.Fprintln(stdout, "outcome: log ends mid-run (no end frame)")
	case end.Completed:
		fmt.Fprintf(stdout, "outcome: completed after %d steps\n", end.Steps)
	default:
		fmt.Fprintf(stdout, "outcome: stopped after %d steps: %s\n", end.Steps, end.Err)
	}
	return nil
}
