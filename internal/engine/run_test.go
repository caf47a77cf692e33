package engine_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
)

func testFed(seed int64) *dataset.Federation {
	return dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients:        12,
		TrainPerClient: 60,
		TestPerClient:  15,
		Seed:           seed,
	})
}

func testConfig() core.Config {
	return core.Config{
		Rounds:          10,
		ClientsPerRound: 4,
		Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Selector:        tipselect.AccuracyWalk{Alpha: 10},
		Seed:            1,
	}
}

// TestObserverSeesEveryRoundInOrder is the ordering guarantee of the run
// API: exactly cfg.Rounds round events, strictly ordered, under any worker
// count — the engine's internal parallelism must never leak into the event
// stream.
func TestObserverSeesEveryRoundInOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		sim, err := core.NewSimulation(testFed(2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rounds []int
		publishes := 0
		rep, err := engine.Run(context.Background(), sim, engine.WithHooks(engine.Hooks{
			OnRound: func(ev engine.RoundEvent) {
				rounds = append(rounds, ev.Round)
				if ev.Engine != "specdag" {
					t.Fatalf("engine name %q", ev.Engine)
				}
				if ev.Detail.(*core.RoundResult).Round != ev.Round {
					t.Fatal("Detail does not match the round")
				}
			},
			OnPublish: func(ev engine.PublishEvent) {
				publishes++
				if ev.Tx <= 0 {
					t.Fatalf("publish with bad tx id %d", ev.Tx)
				}
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed || rep.Steps != cfg.Rounds {
			t.Fatalf("workers=%d: report %+v, want %d completed steps", workers, rep, cfg.Rounds)
		}
		if len(rounds) != cfg.Rounds {
			t.Fatalf("workers=%d: observer saw %d rounds, want %d", workers, len(rounds), cfg.Rounds)
		}
		for i, r := range rounds {
			if r != i {
				t.Fatalf("workers=%d: event %d reports round %d — out of order", workers, i, r)
			}
		}
		if publishes != sim.DAG().Size()-1 {
			t.Fatalf("workers=%d: %d publish events for %d non-genesis transactions",
				workers, publishes, sim.DAG().Size()-1)
		}
	}
}

// TestCancellationReturnsPartialResults: a canceled Run stops at unit
// granularity and the engine keeps the completed prefix.
func TestCancellationReturnsPartialResults(t *testing.T) {
	sim, err := core.NewSimulation(testFed(3), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := engine.Run(ctx, sim, engine.WithHooks(engine.Hooks{
		OnRound: func(ev engine.RoundEvent) {
			if ev.Round == 2 {
				cancel()
			}
		},
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Completed {
		t.Fatal("canceled run reported completion")
	}
	if rep.Steps != 3 || len(sim.Results()) != 3 {
		t.Fatalf("partial results: steps=%d results=%d, want 3", rep.Steps, len(sim.Results()))
	}
	// The partial prefix matches an uninterrupted run's.
	refHist := stepToEnd(t, func() (*core.Simulation, error) {
		return core.NewSimulation(testFed(3), testConfig())
	}).Results()
	for i, rr := range sim.Results() {
		if rr.MeanTrainedAcc() != refHist[i].MeanTrainedAcc() {
			t.Fatalf("partial round %d diverges from uninterrupted run", i)
		}
	}
}

// TestDeadlineCancelsRun: context deadlines work like explicit cancellation.
func TestDeadlineCancelsRun(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 1 << 20 // would run forever
	sim, err := core.NewSimulation(testFed(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := engine.Run(ctx, sim)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if rep.Completed || rep.Steps == 0 {
		t.Fatalf("deadline report %+v: want some steps, not completed", rep)
	}
}

// TestProbesFireOnCadence: probes run every N units and deliver values.
func TestProbesFireOnCadence(t *testing.T) {
	sim, err := core.NewSimulation(testFed(5), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	_, err = engine.Run(context.Background(), sim,
		engine.WithProbe("dag-size", 3, func() float64 { return float64(sim.DAG().Size()) }),
		engine.WithHooks(engine.Hooks{OnProbe: func(ev engine.ProbeEvent) {
			if ev.Name != "dag-size" || ev.Value < 1 {
				t.Fatalf("bad probe event %+v", ev)
			}
			steps = append(steps, ev.Step)
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 6, 9}
	if len(steps) != len(want) {
		t.Fatalf("probe fired at %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("probe fired at %v, want %v", steps, want)
		}
	}
}

// TestHooksCompose: multiple WithHooks options each see every event.
func TestHooksCompose(t *testing.T) {
	sim, err := core.NewSimulation(testFed(6), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0, 0
	_, err = engine.Run(context.Background(), sim,
		engine.WithHooks(engine.Hooks{OnRound: func(engine.RoundEvent) { a++ }}),
		engine.WithHooks(engine.Hooks{OnRound: func(engine.RoundEvent) { b++ }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 10 || b != 10 {
		t.Fatalf("hooks saw %d/%d rounds, want 10/10", a, b)
	}
}

// TestCheckpointsRequireSnapshotter: WithCheckpoints fails fast on engines
// without checkpoint support instead of silently skipping.
func TestCheckpointsRequireSnapshotter(t *testing.T) {
	eng, err := fl.NewFederated(testFed(7), fl.Config{
		Rounds: 3, ClientsPerRound: 4,
		Local: nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:  nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Run(context.Background(), eng,
		engine.WithCheckpoints(1, func(int) (io.WriteCloser, error) { return nil, nil }))
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want checkpoint-unsupported error", err)
	}
}

// stepToEnd builds an engine and drives it with a bare Step loop — no Run,
// no options — the reference the unified API must agree with.
func stepToEnd[E engine.Engine](t *testing.T, mk func() (E, error)) E {
	t.Helper()
	e, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, done, err := e.Step(context.Background()); err != nil {
			t.Fatal(err)
		} else if done {
			return e
		}
	}
}

// TestEveryEngineRunsThroughUnifiedAPI: one Run call drives all four engine
// families to completion, and each agrees with a bare Step loop over a fresh
// engine of the same configuration.
func TestEveryEngineRunsThroughUnifiedAPI(t *testing.T) {
	fedSeed := int64(8)
	local := nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10}
	arch := nn.Arch{In: 64, Hidden: []int{32}, Out: 10}

	t.Run("async", func(t *testing.T) {
		mk := func() *core.AsyncSimulation {
			a, err := core.NewAsyncSimulation(testFed(fedSeed), core.AsyncConfig{
				Duration: 30, MinCycle: 1, MaxCycle: 8, NetworkDelay: 0.5,
				Local: local, Arch: arch, Selector: tipselect.AccuracyWalk{Alpha: 10}, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		eng := mk()
		events := 0
		rep, err := engine.Run(context.Background(), eng, engine.WithHooks(engine.Hooks{
			OnRound: func(ev engine.RoundEvent) {
				if ev.Detail.(*core.AsyncEvent).Seq != events {
					t.Fatal("async events out of order")
				}
				events++
			},
		}))
		if err != nil || !rep.Completed {
			t.Fatalf("async run: %v %+v", err, rep)
		}
		if events != eng.Events() || events == 0 {
			t.Fatalf("observer saw %d events, engine processed %d", events, eng.Events())
		}
		// A bare Step loop — no Run, no hooks — produces identical results.
		legacy := stepToEnd(t, func() (*core.AsyncSimulation, error) { return mk(), nil }).Result()
		got := eng.Result()
		if got.Transactions != legacy.Transactions || len(got.Clients) != len(legacy.Clients) {
			t.Fatal("engine.Run result diverges from a bare Step loop")
		}
		for i := range got.Clients {
			if got.Clients[i] != legacy.Clients[i] {
				t.Fatalf("client %d stats diverge", i)
			}
		}
	})

	t.Run("federated", func(t *testing.T) {
		cfg := fl.Config{Rounds: 8, ClientsPerRound: 4, Local: local, Arch: arch, Seed: 2}
		eng, err := fl.NewFederated(testFed(fedSeed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		rep, err := engine.Run(context.Background(), eng, engine.WithHooks(engine.Hooks{
			OnRound: func(ev engine.RoundEvent) { rounds++ },
		}))
		if err != nil || !rep.Completed || rounds != cfg.Rounds {
			t.Fatalf("federated run: %v %+v rounds=%d", err, rep, rounds)
		}
		legacy := stepToEnd(t, func() (*fl.Federated, error) { return fl.NewFederated(testFed(fedSeed), cfg) }).Result()
		got := eng.Result()
		for i := range got.Rounds {
			if got.Rounds[i].MeanAcc != legacy.Rounds[i].MeanAcc {
				t.Fatalf("round %d diverges from a bare Step loop", i)
			}
		}
	})

	t.Run("gossip", func(t *testing.T) {
		cfg := fl.GossipConfig{Rounds: 8, ClientsPerRound: 4, Local: local, Arch: arch, Seed: 3}
		eng, err := fl.NewGossip(testFed(fedSeed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := engine.Run(context.Background(), eng)
		if err != nil || !rep.Completed || rep.Steps != cfg.Rounds {
			t.Fatalf("gossip run: %v %+v", err, rep)
		}
		legacy := stepToEnd(t, func() (*fl.Gossip, error) { return fl.NewGossip(testFed(fedSeed), cfg) }).Result()
		got := eng.Result()
		for i := range got.Rounds {
			if got.Rounds[i].MeanAcc != legacy.Rounds[i].MeanAcc {
				t.Fatalf("round %d diverges from a bare Step loop", i)
			}
		}
	})
}

// TestAsyncCancellationPartialResult: canceling the event engine mid-run
// leaves a usable partial Result.
func TestAsyncCancellationPartialResult(t *testing.T) {
	a, err := core.NewAsyncSimulation(testFed(9), core.AsyncConfig{
		Duration: 60, MinCycle: 1, MaxCycle: 4, NetworkDelay: 0.5,
		Local: nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:  nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := engine.Run(ctx, a, engine.WithHooks(engine.Hooks{
		OnRound: func(ev engine.RoundEvent) {
			if ev.Round == 19 {
				cancel()
			}
		},
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if rep.Steps != 20 || a.Events() != 20 {
		t.Fatalf("steps=%d events=%d, want 20", rep.Steps, a.Events())
	}
	res := a.Result()
	cycles := 0
	for _, c := range res.Clients {
		cycles += c.Cycles
	}
	if cycles != 20 {
		t.Fatalf("partial result has %d cycles, want 20", cycles)
	}
}
