package core

// Golden-checkpoint fixtures, committed under testdata/: one sync and one
// async checkpoint of each generation this build reads.
// golden_{sync,async}_v2.sdc are SDC2/SDA2 files an older build wrote (the
// state as one gob value) and stay byte for byte as committed — nothing can
// write them any more; they keep the reader's previous-generation branch
// honest. golden_{sync,async}_v3.sdc are SDC3/SDA3, what this build writes.
// Every test run decodes and fully resumes all four, so a codec change that
// silently breaks previously written checkpoints fails CI here instead of
// corrupting a user's resume, and re-writes the v3 pair from the pinned
// configuration: checkpoint bytes are a function of the state, so they must
// come out as committed. The generating configuration is pinned below — it
// must never change, or the fixtures stop being "old files" and start being
// "files this very commit wrote".
//
// Regenerate the v3 pair (only after a deliberate, versioned format change):
//
//	SPECDAG_REGEN_GOLDEN=1 go test ./internal/core/ -run TestGoldenCheckpoint

import (
	"bytes"
	"os"
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
	goldenSyncPathV2  = "testdata/golden_sync_v2.sdc" // SDC2, from an older build
	goldenAsyncPathV2 = "testdata/golden_async_v2.sdc"
	goldenSyncPathV3  = "testdata/golden_sync_v3.sdc" // SDC3, what this build writes
	goldenAsyncPathV3 = "testdata/golden_async_v3.sdc"
	goldenSyncCut     = 2 // rounds completed when the fixtures were written
	goldenAsyncCut    = 3 // events processed when the fixtures were written
)

// goldenSyncCheckpoint runs the pinned sync configuration to the cut and
// returns its checkpoint; goldenAsyncCheckpoint is the event-driven sibling.
func goldenSyncCheckpoint(t *testing.T) []byte {
	t.Helper()
	sim, err := NewSimulation(goldenFed(), goldenSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenSyncCut; i++ {
		sim.RunRound()
	}
	var buf bytes.Buffer
	if _, err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenAsyncCheckpoint(t *testing.T) []byte {
	t.Helper()
	async, err := NewAsyncSimulation(goldenFed(), goldenAsyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	for async.Events() < goldenAsyncCut {
		async.step()
	}
	var buf bytes.Buffer
	if _, err := async.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCheckpointFixtures decodes the committed fixtures of both
// generations and resumes them to completion: the resumed history and DAG
// must match a never-interrupted run of the pinned configuration bit for bit.
// A decoder or codec change that cannot read yesterday's files fails here;
// so does a writer whose bytes for the pinned state are not the v3 fixtures.
func TestGoldenCheckpointFixtures(t *testing.T) {
	regen := os.Getenv("SPECDAG_REGEN_GOLDEN") != ""
	// checkWritten holds what this build writes against the committed v3
	// fixture (or replaces the fixture when regenerating).
	checkWritten := func(t *testing.T, path string, written []byte) {
		if regen {
			if err := os.WriteFile(path, written, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s (%d bytes)", path, len(written))
		}
		if blob, err := os.ReadFile(path); err != nil || !bytes.Equal(blob, written) {
			t.Fatalf("writing the pinned configuration gives %d bytes that are not the %d of %s (%v)", len(written), len(blob), path, err)
		}
	}
	readFixture := func(t *testing.T, path, magic string) []byte {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture: %v", err)
		}
		if string(blob[:4]) != magic {
			t.Fatalf("%s starts %q, want %q", path, blob[:4], magic)
		}
		return blob
	}

	t.Run("sync", func(t *testing.T) {
		checkWritten(t, goldenSyncPathV3, goldenSyncCheckpoint(t))
		ref, err := NewSimulation(goldenFed(), goldenSyncConfig())
		if err != nil {
			t.Fatal(err)
		}
		refHist := runAll(ref)
		for _, f := range [][2]string{{goldenSyncPathV2, "SDC2"}, {goldenSyncPathV3, "SDC3"}} {
			path := f[0]
			blob := readFixture(t, path, f[1])
			info, _, err := InspectCheckpoint(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s no longer decodes: %v", path, err)
			}
			if info.Kind != "sync" || info.Round != goldenSyncCut || info.Seed != goldenSyncConfig().Seed {
				t.Fatalf("%s: summary drifted: %+v", path, info)
			}
			resumed, err := ResumeSimulation(goldenFed(), goldenSyncConfig(), bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s no longer resumes: %v", path, err)
			}
			assertHistoriesIdentical(t, refHist, runAll(resumed))
			if !bytes.Equal(dagBytes(t, ref), dagBytes(t, resumed)) {
				t.Fatalf("%s: resume diverged: serialized DAGs differ", path)
			}
		}
	})

	t.Run("async", func(t *testing.T) {
		checkWritten(t, goldenAsyncPathV3, goldenAsyncCheckpoint(t))
		ref, err := NewAsyncSimulation(goldenFed(), goldenAsyncConfig())
		if err != nil {
			t.Fatal(err)
		}
		drainAsync(ref)
		for _, f := range [][2]string{{goldenAsyncPathV2, "SDA2"}, {goldenAsyncPathV3, "SDA3"}} {
			path := f[0]
			blob := readFixture(t, path, f[1])
			info, _, err := InspectCheckpoint(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s no longer decodes: %v", path, err)
			}
			if info.Kind != "async" || info.Events != goldenAsyncCut || info.Seed != goldenAsyncConfig().Seed {
				t.Fatalf("%s: summary drifted: %+v", path, info)
			}
			resumed, err := ResumeAsyncSimulation(goldenFed(), goldenAsyncConfig(), bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s no longer resumes: %v", path, err)
			}
			drainAsync(resumed)
			assertAsyncResultsIdentical(t, ref.Result(), resumed.Result())
			if !bytes.Equal(asyncDAGBytes(t, ref), asyncDAGBytes(t, resumed)) {
				t.Fatalf("%s: resume diverged: serialized DAGs differ", path)
			}
		}
	})
}
