package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// drainAsync steps the simulation to completion, returning every event.
func drainAsync(a *AsyncSimulation) []AsyncEvent {
	var evs []AsyncEvent
	for !a.done {
		if ev, _ := a.step(); ev != nil {
			evs = append(evs, *ev)
		}
	}
	return evs
}

// asyncDAGBytes serializes the tangle for byte-level comparison.
func asyncDAGBytes(t *testing.T, a *AsyncSimulation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.DAG().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertAsyncResultsIdentical compares final per-client statistics.
func assertAsyncResultsIdentical(t *testing.T, a, b *AsyncResult) {
	t.Helper()
	if a.Transactions != b.Transactions {
		t.Fatalf("transaction counts differ: %d vs %d", a.Transactions, b.Transactions)
	}
	if len(a.Clients) != len(b.Clients) {
		t.Fatalf("client stat counts differ: %d vs %d", len(a.Clients), len(b.Clients))
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatalf("client %d stats differ: %+v vs %+v", i, a.Clients[i], b.Clients[i])
		}
	}
}

// assertAsyncEventsIdentical compares two event histories field by field.
func assertAsyncEventsIdentical(t *testing.T, a, b []AsyncEvent) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("event histories differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestAsyncCheckpointResumeBitIdentical is the async counterpart of
// TestCheckpointResumeBitIdentical: interrupt an event-driven run at an
// event index, checkpoint, resume, finish — the remaining event stream, the
// final per-client statistics and the DAG must be bit-identical to a run
// that was never interrupted, across worker counts, propagation delays,
// reference averaging, in-flight (pending) transactions, and the
// parallel cumulative-weight sweep.
func TestAsyncCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name          string
		cutAt         int // events processed before the checkpoint
		mutate        func(*AsyncConfig)
		resumeMutate  func(*AsyncConfig) // applied to the resuming config only
		wantPending   bool               // require in-flight transactions at the cut
		wantParallel  bool               // require the DAG to cross the parallel-CW threshold
		minEventsLeft int                // sanity: the cut must leave work to resume
	}{
		{name: "baseline", cutAt: 10, mutate: func(c *AsyncConfig) {}, minEventsLeft: 5},
		{name: "workers-4", cutAt: 10, mutate: func(c *AsyncConfig) { c.Workers = 4 }, minEventsLeft: 5},
		{name: "no-network-delay", cutAt: 8, mutate: func(c *AsyncConfig) { c.NetworkDelay = 0 }, minEventsLeft: 5},
		{name: "reference-walks-3", cutAt: 10, mutate: func(c *AsyncConfig) { c.ReferenceWalks = 3 }, minEventsLeft: 5},
		{name: "pending-in-flight", cutAt: 12, mutate: func(c *AsyncConfig) { c.NetworkDelay = 6 },
			wantPending: true, minEventsLeft: 5},
		// A checkpoint taken by a Workers=1 run must resume bit-identically
		// under Workers=4: worker count is wall-clock-only, so it is not part
		// of the checkpoint contract.
		{name: "resume-across-worker-counts", cutAt: 10,
			mutate:       func(c *AsyncConfig) { c.Workers = 1 },
			resumeMutate: func(c *AsyncConfig) { c.Workers = 4 }, minEventsLeft: 5},
		// Mirror TestWorkerCountInvariance's parallel-sweep case: grow the
		// tangle past the parallel cumulative-weight threshold (128 txs) with
		// a shared budget. The cut lands before the threshold, so it is the
		// resumed run that crosses into the level-parallel sweep over the
		// restored DAG's CSR adjacency.
		{name: "parallel-sweep", cutAt: 100, mutate: func(c *AsyncConfig) {
			c.Duration = 25
			c.MinCycle = 0.5
			c.MaxCycle = 4
			c.Selector = tipselect.WeightedWalk{Alpha: 0.1}
			c.Workers = 4
			c.Pool = par.NewBudget(4)
		}, wantParallel: true, minEventsLeft: 50},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := asyncConfig()
			tc.mutate(&cfg)
			fedSeed := int64(140 + i)

			// Uninterrupted reference run.
			ref, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			refEvents := drainAsync(ref)
			if len(refEvents) < tc.cutAt+tc.minEventsLeft {
				t.Fatalf("reference run has %d events; need at least %d to cut at %d — enlarge Duration",
					len(refEvents), tc.cutAt+tc.minEventsLeft, tc.cutAt)
			}

			// Interrupted run: cut, checkpoint, resume, finish.
			cut, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var prefix []AsyncEvent
			for len(prefix) < tc.cutAt {
				if ev, _ := cut.step(); ev != nil {
					prefix = append(prefix, *ev)
				}
			}
			if tc.wantPending && len(cut.pending) == 0 {
				t.Fatalf("cut at event %d left no in-flight transactions — raise NetworkDelay", tc.cutAt)
			}
			var snap bytes.Buffer
			if n, err := cut.WriteCheckpoint(&snap); err != nil || n != int64(snap.Len()) {
				t.Fatalf("WriteCheckpoint: n=%d err=%v (buffered %d)", n, err, snap.Len())
			}
			resumeCfg := cfg
			if tc.resumeMutate != nil {
				tc.resumeMutate(&resumeCfg)
			}
			resumed, err := ResumeAsyncSimulation(smallFed(fedSeed), resumeCfg, &snap)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Events() != tc.cutAt {
				t.Fatalf("resumed at event %d, want %d", resumed.Events(), tc.cutAt)
			}
			suffix := drainAsync(resumed)

			assertAsyncEventsIdentical(t, refEvents, append(prefix, suffix...))
			assertAsyncResultsIdentical(t, ref.Result(), resumed.Result())
			if !bytes.Equal(asyncDAGBytes(t, ref), asyncDAGBytes(t, resumed)) {
				t.Fatal("serialized DAGs differ byte-for-byte")
			}
			if tc.wantParallel && ref.DAG().Size() <= 128 {
				t.Fatalf("DAG has %d transactions; the parallel-sweep case needs > 128 — enlarge Duration", ref.DAG().Size())
			}
		})
	}
}

// TestAsyncCheckpointThroughRunAPI exercises the loop the way a user would:
// drive the async engine with specdag.Run, checkpoint through the
// WithCheckpoints option, cancel mid-run via the observer, resume, and
// compare against an uninterrupted Run.
func TestAsyncCheckpointThroughRunAPI(t *testing.T) {
	cfg := asyncConfig()
	fedSeed := int64(150)

	ref, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refEvents []AsyncEvent
	if _, err := engine.Run(context.Background(), ref, engine.WithHooks(engine.Hooks{
		OnRound: func(ev engine.RoundEvent) { refEvents = append(refEvents, *ev.Detail.(*AsyncEvent)) },
	})); err != nil {
		t.Fatal(err)
	}

	async, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	var prefix []AsyncEvent
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := engine.Run(ctx, async,
		engine.WithCheckpoints(1, func(int) (io.WriteCloser, error) {
			snap.Reset()
			return closerBuffer{&snap}, nil
		}),
		engine.WithHooks(engine.Hooks{OnRound: func(ev engine.RoundEvent) {
			prefix = append(prefix, *ev.Detail.(*AsyncEvent))
			if ev.Round == 6 {
				cancel() // the checkpoint for event 7 exists
			}
		}}),
	)
	if err != context.Canceled {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if rep.Completed {
		t.Fatal("canceled run must not report completion")
	}
	if rep.Steps != 7 || async.Events() != 7 {
		t.Fatalf("canceled after %d steps (%d events), want 7", rep.Steps, async.Events())
	}

	resumed, err := ResumeAsyncSimulation(smallFed(fedSeed), cfg, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(context.Background(), resumed, engine.WithHooks(engine.Hooks{
		OnRound: func(ev engine.RoundEvent) { prefix = append(prefix, *ev.Detail.(*AsyncEvent)) },
	})); err != nil {
		t.Fatal(err)
	}
	assertAsyncEventsIdentical(t, refEvents, prefix)
	assertAsyncResultsIdentical(t, ref.Result(), resumed.Result())
	if !bytes.Equal(asyncDAGBytes(t, ref), asyncDAGBytes(t, resumed)) {
		t.Fatal("serialized DAGs differ byte-for-byte")
	}
}

// TestAsyncResumeRejectsMismatches: every configuration dimension that would
// silently diverge a resumed async run must be rejected with an actionable
// error.
func TestAsyncResumeRejectsMismatches(t *testing.T) {
	cfg := asyncConfig()
	a, err := NewAsyncSimulation(smallFed(160), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.step()
	}
	var snap bytes.Buffer
	if _, err := a.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	resume := func(mutate func(*AsyncConfig), fed *dataset.Federation) error {
		c := cfg
		mutate(&c)
		if fed == nil {
			fed = smallFed(160)
		}
		_, err := ResumeAsyncSimulation(fed, c, bytes.NewReader(good))
		return err
	}

	if err := resume(func(c *AsyncConfig) { c.Seed++ }, nil); err == nil || !strings.Contains(err.Error(), "Seed") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*AsyncConfig)
	}{
		{"Duration", func(c *AsyncConfig) { c.Duration *= 2 }},
		{"MinCycle", func(c *AsyncConfig) { c.MinCycle *= 2 }},
		{"MaxCycle", func(c *AsyncConfig) { c.MaxCycle += 1 }},
		{"NetworkDelay", func(c *AsyncConfig) { c.NetworkDelay += 0.25 }},
	} {
		if err := resume(tc.mutate, nil); err == nil || !strings.Contains(err.Error(), "timing") {
			t.Fatalf("%s mismatch not rejected with a timing error: %v", tc.name, err)
		}
	}

	smaller := dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients: 9, TrainPerClient: 60, TestPerClient: 15, Seed: 160,
	})
	if err := resume(func(c *AsyncConfig) {}, smaller); err == nil || !strings.Contains(err.Error(), "clients") {
		t.Fatalf("federation size mismatch not rejected: %v", err)
	}

	if err := resume(func(c *AsyncConfig) { c.Arch.Hidden = []int{16} }, nil); err == nil {
		t.Fatal("architecture mismatch not rejected")
	}
}

// TestAsyncCheckpointCorruptionPaths extends the PR 3 corruption battery to
// the async format: a checkpoint damaged in any of the ways a real file gets
// damaged — cut off at any byte, wrong magic (including sync/async format
// confusion in both directions and a bare SDG1 snapshot), flipped header
// bytes, mismatched seed — must come back from ResumeAsyncSimulation and
// InspectCheckpoint as an actionable error, never a panic and never a
// silently wrong simulation.
func TestAsyncCheckpointCorruptionPaths(t *testing.T) {
	cfg := asyncConfig()
	a, err := NewAsyncSimulation(smallFed(170), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a.step()
	}
	var snap bytes.Buffer
	if _, err := a.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	check := func(t *testing.T, blob []byte, what string) {
		t.Helper()
		if _, err := ResumeAsyncSimulation(smallFed(170), cfg, bytes.NewReader(blob)); err == nil {
			t.Fatalf("ResumeAsyncSimulation accepted %s", what)
		} else if err.Error() == "" {
			t.Fatalf("ResumeAsyncSimulation returned an empty error for %s", what)
		}
		if _, _, err := InspectCheckpoint(bytes.NewReader(blob)); err == nil {
			t.Fatalf("InspectCheckpoint accepted %s", what)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, 3, 4, 5, len(good) / 4, len(good) / 2, len(good) - 1} {
			check(t, good[:n], fmt.Sprintf("an async checkpoint truncated to %d of %d bytes", n, len(good)))
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		wrong := append([]byte(nil), good...)
		copy(wrong, "NOPE")
		check(t, wrong, "a blob with wrong magic")

		var dagOnly bytes.Buffer
		if _, err := a.DAG().WriteTo(&dagOnly); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeAsyncSimulation(smallFed(170), cfg, bytes.NewReader(dagOnly.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "DAG snapshot") {
			t.Fatalf("bare SDG1 snapshot not identified: %v", err)
		}
	})

	t.Run("format-confusion", func(t *testing.T) {
		// An async checkpoint handed to the sync reader must name the fix…
		_, err := ResumeSimulation(smallFed(170), smallConfig(), bytes.NewReader(good))
		if err == nil || !strings.Contains(err.Error(), "ResumeAsyncSimulation") {
			t.Fatalf("sync reader did not direct an async checkpoint to ResumeAsyncSimulation: %v", err)
		}
		// …and a sync checkpoint handed to the async reader likewise.
		sim, err := NewSimulation(smallFed(170), smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		sim.RunRound()
		var syncSnap bytes.Buffer
		if _, err := sim.WriteCheckpoint(&syncSnap); err != nil {
			t.Fatal(err)
		}
		_, err = ResumeAsyncSimulation(smallFed(170), cfg, bytes.NewReader(syncSnap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "ResumeSimulation") {
			t.Fatalf("async reader did not direct a sync checkpoint to ResumeSimulation: %v", err)
		}
	})

	t.Run("flipped-header-bytes", func(t *testing.T) {
		// Corrupt each early byte (magic boundary + gob stream headers): no
		// panic, and either an error or a state identical to the intact one.
		for off := 4; off < 24 && off < len(good); off++ {
			blob := append([]byte(nil), good...)
			blob[off] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("byte %d flipped: panic %v", off, r)
					}
				}()
				resumed, err := ResumeAsyncSimulation(smallFed(170), cfg, bytes.NewReader(blob))
				if err == nil && resumed.Events() != a.Events() {
					t.Fatalf("byte %d flipped: silently resumed at event %d, want %d or an error",
						off, resumed.Events(), a.Events())
				}
				_, _, _ = InspectCheckpoint(bytes.NewReader(blob))
			}()
		}
	})

	t.Run("mismatched-seed-is-actionable", func(t *testing.T) {
		other := cfg
		other.Seed += 7
		_, err := ResumeAsyncSimulation(smallFed(170), other, bytes.NewReader(good))
		if err == nil {
			t.Fatal("seed mismatch accepted")
		}
		for _, want := range []string{"Seed", "diverge"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("seed-mismatch error %q does not mention %q", err, want)
			}
		}
	})
}

// TestInspectAsyncCheckpoint: the inspection surface must summarize async
// checkpoints without reconstructing the simulation.
func TestInspectAsyncCheckpoint(t *testing.T) {
	cfg := asyncConfig()
	cfg.NetworkDelay = 6 // keep some transactions in flight at the cut
	a, err := NewAsyncSimulation(smallFed(180), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		a.step()
	}
	var snap bytes.Buffer
	if _, err := a.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	info, d, err := InspectCheckpoint(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "async" {
		t.Fatalf("Kind = %q, want async", info.Kind)
	}
	if info.Seed != cfg.Seed || info.Events != 9 || info.Duration != cfg.Duration || info.Clients != 12 || info.Done {
		t.Fatalf("bad async checkpoint info: %+v", info)
	}
	if info.Pending != len(a.pending) {
		t.Fatalf("Pending = %d, want %d", info.Pending, len(a.pending))
	}
	if d.Size() != a.DAG().Size() {
		t.Fatalf("checkpoint DAG size %d, want %d", d.Size(), a.DAG().Size())
	}

	// The sync summary now carries the kind, too.
	sim, err := NewSimulation(smallFed(180), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.RunRound()
	var syncSnap bytes.Buffer
	if _, err := sim.WriteCheckpoint(&syncSnap); err != nil {
		t.Fatal(err)
	}
	sinfo, _, err := InspectCheckpoint(&syncSnap)
	if err != nil {
		t.Fatal(err)
	}
	if sinfo.Kind != "sync" || sinfo.Round != 1 {
		t.Fatalf("bad sync checkpoint info: %+v", sinfo)
	}
}
