package core

// Golden-checkpoint fixtures: one sync (SDC1) and one async (SDA1)
// checkpoint, generated once and committed under testdata/. Every test run
// decodes and fully resumes them, so a codec change that silently breaks
// previously written checkpoints fails CI here instead of corrupting a
// user's resume. The generating configuration is pinned below — it must
// never change, or the fixtures stop being "old files" and start being
// "files this very commit wrote".
//
// Regenerate (only after a deliberate, versioned format change):
//
//	SPECDAG_REGEN_GOLDEN=1 go test ./internal/core/ -run TestGoldenCheckpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
)

// goldenFed is the fixture federation: deliberately tiny (the fixtures are
// committed binaries) and independent of the other tests' helpers so that
// tuning smallFed/smallConfig never invalidates the fixtures.
func goldenFed() *dataset.Federation {
	return dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients:        3,
		TrainPerClient: 12,
		TestPerClient:  6,
		Seed:           7,
	})
}

func goldenSyncConfig() Config {
	return Config{
		Rounds:          4,
		ClientsPerRound: 2,
		Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 4},
		Arch:            nn.Arch{In: 64, Hidden: []int{4}, Out: 10},
		Selector:        tipselect.AccuracyWalk{Alpha: 10},
		Seed:            9,
	}
}

func goldenAsyncConfig() AsyncConfig {
	return AsyncConfig{
		Duration:     8,
		MinCycle:     1,
		MaxCycle:     4,
		NetworkDelay: 0.5,
		Local:        nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 4},
		Arch:         nn.Arch{In: 64, Hidden: []int{4}, Out: 10},
		Selector:     tipselect.AccuracyWalk{Alpha: 10},
		Seed:         9,
	}
}

const (
	goldenSyncPath  = "testdata/golden_sync.sdc"
	goldenAsyncPath = "testdata/golden_async.sdc"
	goldenSyncCut   = 2 // rounds completed when the fixture was written
	goldenAsyncCut  = 3 // events processed when the fixture was written
)

// writeGoldenFixtures regenerates both fixture files from the pinned
// configuration.
func writeGoldenFixtures(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenSyncPath), 0o755); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(goldenFed(), goldenSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenSyncCut; i++ {
		sim.RunRound()
	}
	var syncBuf bytes.Buffer
	if _, err := sim.WriteCheckpoint(&syncBuf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenSyncPath, syncBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	async, err := NewAsyncSimulation(goldenFed(), goldenAsyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	for async.Events() < goldenAsyncCut {
		async.step()
	}
	var asyncBuf bytes.Buffer
	if _, err := async.WriteCheckpoint(&asyncBuf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenAsyncPath, asyncBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s (%d bytes) and %s (%d bytes)",
		goldenSyncPath, syncBuf.Len(), goldenAsyncPath, asyncBuf.Len())
}

// TestGoldenCheckpointFixtures decodes the committed fixtures and resumes
// them to completion: the resumed history and DAG must match a
// never-interrupted run of the pinned configuration bit for bit. A decoder
// or codec change that cannot read yesterday's files fails here.
func TestGoldenCheckpointFixtures(t *testing.T) {
	if os.Getenv("SPECDAG_REGEN_GOLDEN") != "" {
		writeGoldenFixtures(t)
	}

	t.Run("sync", func(t *testing.T) {
		blob, err := os.ReadFile(goldenSyncPath)
		if err != nil {
			t.Fatalf("missing fixture (regenerate with SPECDAG_REGEN_GOLDEN=1): %v", err)
		}
		info, _, err := InspectCheckpoint(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("golden sync checkpoint no longer decodes: %v", err)
		}
		if info.Kind != "sync" || info.Round != goldenSyncCut || info.Seed != goldenSyncConfig().Seed {
			t.Fatalf("golden sync checkpoint summary drifted: %+v", info)
		}

		resumed, err := ResumeSimulation(goldenFed(), goldenSyncConfig(), bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("golden sync checkpoint no longer resumes: %v", err)
		}
		resHist := runAll(resumed)

		ref, err := NewSimulation(goldenFed(), goldenSyncConfig())
		if err != nil {
			t.Fatal(err)
		}
		refHist := runAll(ref)
		assertHistoriesIdentical(t, refHist, resHist)
		if !bytes.Equal(dagBytes(t, ref), dagBytes(t, resumed)) {
			t.Fatal("golden sync resume diverged: serialized DAGs differ")
		}
	})

	t.Run("async", func(t *testing.T) {
		blob, err := os.ReadFile(goldenAsyncPath)
		if err != nil {
			t.Fatalf("missing fixture (regenerate with SPECDAG_REGEN_GOLDEN=1): %v", err)
		}
		info, _, err := InspectCheckpoint(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("golden async checkpoint no longer decodes: %v", err)
		}
		if info.Kind != "async" || info.Events != goldenAsyncCut || info.Seed != goldenAsyncConfig().Seed {
			t.Fatalf("golden async checkpoint summary drifted: %+v", info)
		}

		resumed, err := ResumeAsyncSimulation(goldenFed(), goldenAsyncConfig(), bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("golden async checkpoint no longer resumes: %v", err)
		}
		drainAsync(resumed)

		ref, err := NewAsyncSimulation(goldenFed(), goldenAsyncConfig())
		if err != nil {
			t.Fatal(err)
		}
		drainAsync(ref)
		assertAsyncResultsIdentical(t, ref.Result(), resumed.Result())
		if !bytes.Equal(asyncDAGBytes(t, ref), asyncDAGBytes(t, resumed)) {
			t.Fatal("golden async resume diverged: serialized DAGs differ")
		}
	})
}
