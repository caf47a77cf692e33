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
)

// runPrefix runs sim for n rounds.
func runPrefix(t *testing.T, sim *Simulation, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sim.RunRound()
	}
}

// dagBytes serializes a tangle for byte-level comparison.
func dagBytes(t *testing.T, s *Simulation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.DAG().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeBitIdentical is the resumability guarantee behind the
// unified run API: interrupt a run at any round, checkpoint, resume from the
// snapshot, finish — the full history and the DAG must be bit-identical to
// an uninterrupted run, across every feature that carries client state
// between rounds (poisoning labels, partial-sharing heads, partial views,
// reference averaging).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		cutAt   int // round after which to checkpoint
		mutate  func(*Config)
		workers int
	}{
		{"baseline", 5, func(c *Config) {}, 1},
		{"parallel-workers", 5, func(c *Config) {}, 8},
		{"poisoned-after-start", 7, func(c *Config) {
			c.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4, RandomAttackers: 1}
		}, 4},
		{"poisoned-before-start", 3, func(c *Config) {
			c.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4}
		}, 1},
		{"checkpoint-at-poison-start", 4, func(c *Config) {
			c.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4}
		}, 1},
		{"partial-sharing", 6, func(c *Config) { c.SharedLayers = 1 }, 2},
		{"reveal-delay", 6, func(c *Config) { c.RevealDelay = 2 }, 2},
		{"reference-walks-3", 5, func(c *Config) { c.ReferenceWalks = 3 }, 1},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.ClientsPerRound = 6
			cfg.Workers = tc.workers
			tc.mutate(&cfg)
			fedSeed := int64(90 + i)

			// Uninterrupted reference run.
			ref, err := NewSimulation(smallFed(fedSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			refHist := runAll(ref)

			// Interrupted run: cut, checkpoint, resume, finish.
			cut, err := NewSimulation(smallFed(fedSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			runPrefix(t, cut, tc.cutAt)
			var snap bytes.Buffer
			if n, err := cut.WriteCheckpoint(&snap); err != nil || n != int64(snap.Len()) {
				t.Fatalf("WriteCheckpoint: n=%d err=%v (buffered %d)", n, err, snap.Len())
			}
			resumed, err := ResumeSimulation(smallFed(fedSeed), cfg, &snap)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Round() != tc.cutAt {
				t.Fatalf("resumed at round %d, want %d", resumed.Round(), tc.cutAt)
			}
			resHist := runAll(resumed)

			assertHistoriesIdentical(t, refHist, resHist)
			assertDAGsIdentical(t, ref, resumed)
			if !bytes.Equal(dagBytes(t, ref), dagBytes(t, resumed)) {
				t.Fatal("serialized DAGs differ byte-for-byte")
			}
		})
	}
}

// TestCheckpointThroughRunAPI exercises the full loop the way a user would:
// cancel a Run mid-flight via its observer, checkpoint through the
// WithCheckpoints option, resume, and compare with an uninterrupted Run.
func TestCheckpointThroughRunAPI(t *testing.T) {
	cfg := smallConfig()
	fedSeed := int64(110)

	ref, err := NewSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(context.Background(), ref); err != nil {
		t.Fatal(err)
	}

	sim, err := NewSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := engine.Run(ctx, sim,
		engine.WithCheckpoints(1, func(int) (io.WriteCloser, error) {
			snap.Reset()
			return closerBuffer{&snap}, nil
		}),
		engine.WithHooks(engine.Hooks{OnRound: func(ev engine.RoundEvent) {
			if ev.Round == 4 {
				cancel() // cancel mid-run; the checkpoint for round 5 exists
			}
		}}),
	)
	if err != context.Canceled {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if rep.Completed {
		t.Fatal("canceled run must not report completion")
	}
	if rep.Steps != 5 || sim.Round() != 5 {
		t.Fatalf("canceled after %d steps (round %d), want 5", rep.Steps, sim.Round())
	}
	if len(sim.Results()) != 5 {
		t.Fatalf("partial results = %d rounds, want 5", len(sim.Results()))
	}

	resumed, err := ResumeSimulation(smallFed(fedSeed), cfg, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(context.Background(), resumed); err != nil {
		t.Fatal(err)
	}
	assertHistoriesIdentical(t, ref.Results(), resumed.Results())
	assertDAGsIdentical(t, ref, resumed)
}

// closerBuffer adapts a bytes.Buffer to io.WriteCloser for WithCheckpoints.
type closerBuffer struct{ *bytes.Buffer }

func (closerBuffer) Close() error { return nil }

func TestResumeRejectsMismatches(t *testing.T) {
	cfg := smallConfig()
	sim, err := NewSimulation(smallFed(120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPrefix(t, sim, 3)
	var snap bytes.Buffer
	if _, err := sim.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}

	// Different seed: the randomness universe diverged.
	badSeed := cfg
	badSeed.Seed = cfg.Seed + 1
	if _, err := ResumeSimulation(smallFed(120), badSeed, bytes.NewReader(snap.Bytes())); err == nil || !strings.Contains(err.Error(), "Seed") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}

	// Different federation size.
	smaller := dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients: 9, TrainPerClient: 60, TestPerClient: 15, Seed: 120,
	})
	if _, err := ResumeSimulation(smaller, cfg, bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("federation size mismatch not rejected")
	}

	// Different architecture: the genesis parameter vector cannot match.
	badArch := cfg
	badArch.Arch.Hidden = []int{16}
	if _, err := ResumeSimulation(smallFed(120), badArch, bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("architecture mismatch not rejected")
	}

	// Different attack parameters: the checkpointed label flips would be
	// inconsistent with the resumed configuration.
	badPoison := cfg
	badPoison.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 1}
	if _, err := ResumeSimulation(smallFed(120), badPoison, bytes.NewReader(snap.Bytes())); err == nil || !strings.Contains(err.Error(), "Poison") {
		t.Fatalf("poison mismatch not rejected: %v", err)
	}

	// Not a checkpoint at all.
	if _, err := ResumeSimulation(smallFed(120), cfg, strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted as checkpoint")
	}

	// Truncated checkpoint.
	if _, err := ResumeSimulation(smallFed(120), cfg, bytes.NewReader(snap.Bytes()[:snap.Len()/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestInspectCheckpoint(t *testing.T) {
	cfg := smallConfig()
	sim, err := NewSimulation(smallFed(122), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPrefix(t, sim, 4)
	var snap bytes.Buffer
	if _, err := sim.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	info, d, err := InspectCheckpoint(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 4 || info.Rounds != cfg.Rounds || info.Seed != cfg.Seed || info.Clients != 12 {
		t.Fatalf("bad checkpoint info: %+v", info)
	}
	if d.Size() != sim.DAG().Size() {
		t.Fatalf("checkpoint DAG size %d, want %d", d.Size(), sim.DAG().Size())
	}
}

// TestResumeBeyondHorizon: a finished run's checkpoint can seed a longer
// run, and its prefix matches a run configured long from the start.
func TestResumeBeyondHorizon(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 6
	sim, err := NewSimulation(smallFed(123), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runAll(sim)
	var snap bytes.Buffer
	if _, err := sim.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	longCfg := cfg
	longCfg.Rounds = 10
	resumed, err := ResumeSimulation(smallFed(123), longCfg, &snap)
	if err != nil {
		t.Fatal(err)
	}
	resumedHist := runAll(resumed)

	ref, err := NewSimulation(smallFed(123), longCfg)
	if err != nil {
		t.Fatal(err)
	}
	refHist := runAll(ref)
	assertHistoriesIdentical(t, refHist, resumedHist)
}

// TestCheckpointCorruptionPaths is the systematic corruption battery: a
// checkpoint damaged in any of the ways a real file gets damaged — cut off
// at any byte (partial write, full disk), wrong magic (not a checkpoint, or
// a bare SDG1 DAG snapshot), flipped header bytes — must come back from
// ResumeSimulation and InspectCheckpoint as an actionable error, never a
// panic and never a silently wrong simulation.
func TestCheckpointCorruptionPaths(t *testing.T) {
	cfg := smallConfig()
	sim, err := NewSimulation(smallFed(130), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPrefix(t, sim, 2)
	var snap bytes.Buffer
	if _, err := sim.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	// Both readers must agree that a blob is broken; neither may panic.
	check := func(t *testing.T, blob []byte, what string) {
		t.Helper()
		if _, err := ResumeSimulation(smallFed(130), cfg, bytes.NewReader(blob)); err == nil {
			t.Fatalf("ResumeSimulation accepted %s", what)
		} else if err.Error() == "" {
			t.Fatalf("ResumeSimulation returned an empty error for %s", what)
		}
		if _, _, err := InspectCheckpoint(bytes.NewReader(blob)); err == nil {
			t.Fatalf("InspectCheckpoint accepted %s", what)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		// Every prefix, including the empty file, a partial magic, and a cut
		// inside the gob payload and inside the embedded DAG bytes.
		for _, n := range []int{0, 1, 3, 4, 5, len(good) / 4, len(good) / 2, len(good) - 1} {
			check(t, good[:n], fmt.Sprintf("a checkpoint truncated to %d of %d bytes", n, len(good)))
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		wrong := append([]byte(nil), good...)
		copy(wrong, "NOPE")
		check(t, wrong, "a blob with wrong magic")

		// A valid SDG1 DAG snapshot is not a simulation checkpoint; the
		// magic check must say so instead of feeding the DAG bytes to gob.
		var dagOnly bytes.Buffer
		if _, err := sim.DAG().WriteTo(&dagOnly); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeSimulation(smallFed(130), cfg, bytes.NewReader(dagOnly.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bare DAG snapshot not rejected by magic check: %v", err)
		}

		// Same for an SDE1 event log (internal/wire): the resume paths must
		// name the format instead of gob-decoding stream frames.
		events := append([]byte("SDE1"), good[4:]...)
		_, err = ResumeSimulation(smallFed(130), cfg, bytes.NewReader(events))
		if err == nil || !strings.Contains(err.Error(), "event-stream log") {
			t.Fatalf("SDE1 event log not identified by the sync magic check: %v", err)
		}
		_, err = ResumeAsyncSimulation(smallFed(130), goldenAsyncConfig(), bytes.NewReader(events))
		if err == nil || !strings.Contains(err.Error(), "event-stream log") {
			t.Fatalf("SDE1 event log not identified by the async magic check: %v", err)
		}
	})

	t.Run("flipped-header-bytes", func(t *testing.T) {
		// Corrupt each of the first bytes after the magic (gob stream
		// headers). Decoding may or may not fail depending on the byte, but
		// it must never panic; when it "succeeds", the structural checks
		// (round/results consistency, genesis match, seed) must still hold,
		// so we only require: no panic, and an error OR a state identical to
		// the intact checkpoint.
		for off := 4; off < 24 && off < len(good); off++ {
			blob := append([]byte(nil), good...)
			blob[off] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("byte %d flipped: panic %v", off, r)
					}
				}()
				resumed, err := ResumeSimulation(smallFed(130), cfg, bytes.NewReader(blob))
				if err == nil && resumed.Round() != sim.Round() {
					t.Fatalf("byte %d flipped: silently resumed at round %d, want %d or an error",
						off, resumed.Round(), sim.Round())
				}
				_, _, _ = func() (*CheckpointInfo, int, error) {
					info, d, err := InspectCheckpoint(bytes.NewReader(blob))
					if err != nil {
						return nil, 0, err
					}
					return info, d.Size(), nil
				}()
			}()
		}
	})

	t.Run("mismatched-seed-is-actionable", func(t *testing.T) {
		other := cfg
		other.Seed = cfg.Seed + 7
		_, err := ResumeSimulation(smallFed(130), other, bytes.NewReader(good))
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
