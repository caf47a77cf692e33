package specdag_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"

	specdag "github.com/specdag/specdag"
)

// TestPublicAPIEndToEnd exercises the library exactly as a downstream user
// would: build a federation, run the DAG, compare with FedAvg, compute the
// specialization metrics.
func TestPublicAPIEndToEnd(t *testing.T) {
	fed := specdag.FMNISTClustered(specdag.FMNISTConfig{
		Clients:        12,
		TrainPerClient: 60,
		TestPerClient:  15,
		Seed:           1,
	})

	cfg := specdag.Config{
		Rounds:          15,
		ClientsPerRound: 4,
		Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Selector:        specdag.AccuracyWalk{Alpha: 10},
		Seed:            2,
	}
	sim, err := specdag.NewSimulation(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specdag.Run(context.Background(), sim); err != nil {
		t.Fatal(err)
	}
	results := sim.Results()
	if len(results) != 15 {
		t.Fatalf("rounds = %d", len(results))
	}

	pureness := specdag.ApprovalPureness(sim.DAG(), fed.ClusterOf())
	if pureness < 0 || pureness > 1 {
		t.Fatalf("pureness out of range: %v", pureness)
	}

	g := specdag.BuildClientGraph(sim.DAG())
	part := specdag.Louvain(g, 3)
	if len(part) == 0 {
		t.Fatal("empty partition")
	}
	if q := specdag.Modularity(g, part); q < -0.5 || q > 1 {
		t.Fatalf("modularity out of range: %v", q)
	}
	mis := specdag.Misclassification(part, fed.ClusterOf())
	if mis < 0 || mis > 1 {
		t.Fatalf("misclassification out of range: %v", mis)
	}

	fedEng, err := specdag.NewFederated(fed, specdag.FedConfig{
		Rounds:          10,
		ClientsPerRound: 4,
		Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            cfg.Arch,
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specdag.Run(context.Background(), fedEng); err != nil {
		t.Fatal(err)
	}
	if len(fedEng.Result().MeanAccs()) != 10 {
		t.Fatal("FedAvg curve wrong length")
	}
}

// TestRunCancelCheckpointResumeByteIdentical is the acceptance test of the
// unified run API, exercised end to end through the public surface: a run
// started via specdag.Run, canceled partway via its context, checkpointed,
// and resumed must produce byte-identical RoundResult history and DAG
// contents to a run that was never interrupted.
func TestRunCancelCheckpointResumeByteIdentical(t *testing.T) {
	mkFed := func() *specdag.Federation {
		return specdag.FMNISTClustered(specdag.FMNISTConfig{
			Clients:        12,
			TrainPerClient: 60,
			TestPerClient:  15,
			Seed:           61,
		})
	}
	cfg := specdag.Config{
		Rounds:          10,
		ClientsPerRound: 5,
		Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            specdag.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Selector:        specdag.AccuracyWalk{Alpha: 10},
		Workers:         4,
		Seed:            62,
	}

	// Uninterrupted reference run.
	ref, err := specdag.NewSimulation(mkFed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specdag.Run(context.Background(), ref); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel from the observer after round 4, checkpoint
	// the partial state, resume it into a fresh simulation, finish.
	interrupted, err := specdag.NewSimulation(mkFed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := specdag.Run(ctx, interrupted, specdag.WithHooks(specdag.Hooks{
		OnRound: func(ev specdag.RoundEvent) {
			if ev.Round == 3 {
				cancel()
			}
		},
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Completed || rep.Steps != 4 {
		t.Fatalf("canceled report %+v, want 4 uncompleted steps", rep)
	}

	var snap bytes.Buffer
	if _, err := interrupted.WriteCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	resumed, err := specdag.ResumeSimulation(mkFed(), cfg, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specdag.Run(context.Background(), resumed); err != nil {
		t.Fatal(err)
	}

	// Byte-identical history: identical gob serializations.
	history := func(s *specdag.Simulation) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s.Results()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(history(ref), history(resumed)) {
		t.Fatal("RoundResult histories are not byte-identical")
	}

	// Byte-identical DAG contents: identical binary snapshots.
	dagBytes := func(s *specdag.Simulation) []byte {
		var buf bytes.Buffer
		if _, err := s.DAG().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(dagBytes(ref), dagBytes(resumed)) {
		t.Fatal("DAG contents are not byte-identical")
	}
}

// TestSharedPoolBoundsPublicRuns: several engines running concurrently on
// one WorkerPool never exceed its size in total, asserted via the pool's
// own accounting.
func TestSharedPoolBoundsPublicRuns(t *testing.T) {
	fed := specdag.FMNISTClustered(specdag.FMNISTConfig{
		Clients:        12,
		TrainPerClient: 60,
		TestPerClient:  15,
		Seed:           63,
	})
	pool := specdag.NewWorkerPool(3)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim, err := specdag.NewSimulation(fed, specdag.Config{
				Rounds:          5,
				ClientsPerRound: 6,
				Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
				Arch:            specdag.Arch{In: 64, Hidden: []int{32}, Out: 10},
				Selector:        specdag.AccuracyWalk{Alpha: 10},
				Pool:            pool,
				Seed:            int64(64 + i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := specdag.Run(context.Background(), sim); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	// Four concurrent root goroutines each add one slot beyond the pool's
	// helpers; the helpers themselves are capped at size-1, which is what
	// Peak (helpers plus one root) reads.
	if peak := pool.Peak(); peak > pool.Size() {
		t.Fatalf("peak %d exceeds pool size %d", peak, pool.Size())
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool reports %d in use after all runs finished", pool.InUse())
	}
}
