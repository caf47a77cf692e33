package core

// The crash-anywhere property suite: a checkpoint taken at *every* unit
// boundary — after every round of the synchronous engine, after every event
// of the asynchronous engine — must resume into a run whose remaining
// history, final statistics and final DAG are byte-identical to a run that
// was never interrupted. This is the strongest form of the resume contract:
// not "some convenient cut points work" but "a crash between any two units
// is recoverable with zero drift".
//
// Both engines get the exhaustive every-index treatment on a small
// configuration; the asynchronous engine additionally gets a sampled-index
// pass over a larger run (where N² exhaustion would be too slow) covering
// early, middle, threshold-adjacent and final indices.

import (
	"bytes"
	"testing"

	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// syncCheckpointsAtEveryRound runs one simulation to completion, returning a
// checkpoint taken before every round (index k = rounds completed), one
// final post-completion checkpoint, and the run's history. Checkpointing is
// read-only, so the same run doubles as the uninterrupted reference.
func syncCheckpointsAtEveryRound(t *testing.T, cfg Config, fedSeed int64) ([][]byte, []RoundResult, *Simulation) {
	t.Helper()
	sim, err := NewSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts [][]byte
	for sim.Round() < cfg.Rounds {
		var buf bytes.Buffer
		if _, err := sim.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, buf.Bytes())
		sim.RunRound()
	}
	var buf bytes.Buffer
	if _, err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ckpts = append(ckpts, buf.Bytes())
	return ckpts, sim.Results(), sim
}

// TestCrashAnywhereResumeEquivalenceSync pins the synchronous engine's
// resume contract at every round index, across the features that carry
// client state between rounds: worker counts, evaluation-cache scopes,
// poisoning (label flips + random attackers), and partial-visibility reveal
// delays.
func TestCrashAnywhereResumeEquivalenceSync(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline-workers-1", func(c *Config) { c.Workers = 1 }},
		{"workers-4-eval-scope-run", func(c *Config) { c.Workers = 4; c.EvalScope = EvalScopeRun }},
		{"poisoned", func(c *Config) {
			c.Workers = 2
			c.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4, RandomAttackers: 1}
		}},
		{"reveal-delay-eval-scope-none", func(c *Config) {
			c.Workers = 2
			c.RevealDelay = 2
			c.EvalScope = EvalScopeNone
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.ClientsPerRound = 4
			tc.mutate(&cfg)
			fedSeed := int64(200 + i)

			ckpts, refHist, ref := syncCheckpointsAtEveryRound(t, cfg, fedSeed)
			refDAG := dagBytes(t, ref)

			for k, ckpt := range ckpts {
				resumed, err := ResumeSimulation(smallFed(fedSeed), cfg, bytes.NewReader(ckpt))
				if err != nil {
					t.Fatalf("resume at round %d: %v", k, err)
				}
				if resumed.Round() != k {
					t.Fatalf("checkpoint %d resumed at round %d", k, resumed.Round())
				}
				resHist := runAll(resumed)
				assertHistoriesIdentical(t, refHist, resHist)
				if !bytes.Equal(refDAG, dagBytes(t, resumed)) {
					t.Fatalf("resume at round %d: serialized DAGs differ byte-for-byte", k)
				}
			}
		})
	}
}

// asyncCkptAt is one crash point: a checkpoint taken with k events
// processed. Two distinct states share index N (the number of events in the
// whole run): the pre-finish snapshot (done=false, pending transactions not
// yet flushed — what WithCheckpoints writes after the final event) and the
// post-finish one (done=true, pending flushed); both must resume cleanly.
type asyncCkptAt struct {
	k    int
	blob []byte
}

// asyncCheckpointsAtEveryEvent runs one event-driven simulation to
// completion, returning a checkpoint taken at every event index — including
// both boundary states at index N — and the event history. Checkpointing is
// read-only, so the same run doubles as the uninterrupted reference.
func asyncCheckpointsAtEveryEvent(t *testing.T, cfg AsyncConfig, fedSeed int64) ([]asyncCkptAt, []AsyncEvent, *AsyncSimulation) {
	t.Helper()
	a, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []asyncCkptAt
	var events []AsyncEvent
	for !a.done {
		var buf bytes.Buffer
		if _, err := a.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, asyncCkptAt{k: a.Events(), blob: buf.Bytes()})
		if ev, _ := a.step(); ev != nil {
			events = append(events, *ev)
		}
	}
	var buf bytes.Buffer
	if _, err := a.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ckpts = append(ckpts, asyncCkptAt{k: a.Events(), blob: buf.Bytes()})
	return ckpts, events, a
}

// resumeAsyncAndCompare resumes from a checkpoint taken at event index k and
// requires the remaining event stream, the final statistics and the final
// DAG to match the reference bit for bit.
func resumeAsyncAndCompare(t *testing.T, cfg AsyncConfig, fedSeed int64, k int, ckpt []byte,
	refEvents []AsyncEvent, ref *AsyncSimulation, refDAG []byte) {
	t.Helper()
	resumed, err := ResumeAsyncSimulation(smallFed(fedSeed), cfg, bytes.NewReader(ckpt))
	if err != nil {
		t.Fatalf("resume at event %d: %v", k, err)
	}
	if resumed.Events() != k {
		t.Fatalf("checkpoint %d resumed at event %d", k, resumed.Events())
	}
	suffix := drainAsync(resumed)
	assertAsyncEventsIdentical(t, refEvents[k:], suffix)
	assertAsyncResultsIdentical(t, ref.Result(), resumed.Result())
	if !bytes.Equal(refDAG, asyncDAGBytes(t, resumed)) {
		t.Fatalf("resume at event %d: serialized DAGs differ byte-for-byte", k)
	}
}

// TestCrashAnywhereResumeEquivalenceAsync pins the asynchronous engine's
// resume contract at every event index of a small run, for both an
// ideal-broadcast (NetworkDelay=0) and a delayed-propagation configuration
// (where checkpoints routinely carry in-flight pending transactions), and
// for both worker counts of the per-event evaluation fan-out.
func TestCrashAnywhereResumeEquivalenceAsync(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*AsyncConfig)
	}{
		{"ideal-broadcast-workers-1", func(c *AsyncConfig) { c.NetworkDelay = 0; c.Workers = 1 }},
		{"network-delay-workers-4", func(c *AsyncConfig) { c.NetworkDelay = 3; c.Workers = 4 }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := asyncConfig()
			cfg.Duration = 6 // ~15-20 events with the 1-8s cycle spread
			tc.mutate(&cfg)
			fedSeed := int64(220 + i)

			ckpts, refEvents, ref := asyncCheckpointsAtEveryEvent(t, cfg, fedSeed)
			if len(refEvents) < 10 {
				t.Fatalf("only %d events; the every-index sweep needs a denser run", len(refEvents))
			}
			// Every event index, plus both boundary states at index N (the
			// pre-finish and post-finish snapshots).
			if len(ckpts) != len(refEvents)+2 {
				t.Fatalf("collected %d checkpoints for %d events", len(ckpts), len(refEvents))
			}
			refDAG := asyncDAGBytes(t, ref)

			for _, c := range ckpts {
				resumeAsyncAndCompare(t, cfg, fedSeed, c.k, c.blob, refEvents, ref, refDAG)
			}
		})
	}
}

// TestCrashAnywhereResumeEquivalenceAsyncLarge is the sampled-index pass
// over a weighted-walk run that grows past 128 transactions under a shared
// worker budget: exhaustive resumption would be quadratic, so it probes
// early, middle and final indices.
func TestCrashAnywhereResumeEquivalenceAsyncLarge(t *testing.T) {
	cfg := asyncConfig()
	cfg.Duration = 25
	cfg.MinCycle = 0.5
	cfg.MaxCycle = 4
	cfg.NetworkDelay = 1
	cfg.Selector = tipselect.WeightedWalk{Alpha: 0.1}
	cfg.Workers = 4
	cfg.Pool = par.NewBudget(4)
	fedSeed := int64(230)

	ckpts, refEvents, ref := asyncCheckpointsAtEveryEvent(t, cfg, fedSeed)
	refDAG := asyncDAGBytes(t, ref)
	if ref.DAG().Size() <= 128 {
		t.Fatalf("DAG has %d transactions; the sampled pass needs a run past 128", ref.DAG().Size())
	}

	n := len(refEvents)
	for _, i := range []int{0, 1, n / 4, n / 2, 3 * n / 4, n - 1, n, n + 1} {
		// ckpts[i].k == i for i <= n; ckpts[n+1] is the post-finish state.
		resumeAsyncAndCompare(t, cfg, fedSeed, ckpts[i].k, ckpts[i].blob, refEvents, ref, refDAG)
	}
}
