package core

// The compaction equivalence suite: with a depth-banded selector, turning
// epoch compaction on must not change a single byte of a run's observable
// output — round/event histories, final statistics, and the final DAG
// (frozen parameter vectors rehydrated from the spill log) are compared
// against the keep-everything reference, across worker counts. Compacted
// checkpoints must additionally resume bit-identically from any event index
// (the crash-anywhere contract, with epoch state riding in the snapshot).

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/tipselect"
)

// bandedSelector is the depth-banded accuracy walk the compaction tests run
// under; GuardDepth derives from its DepthMax.
func bandedSelector() tipselect.Selector {
	return tipselect.AccuracyWalk{Alpha: 10, DepthMin: 2, DepthMax: 5}
}

// assertDAGsEquivalent compares two DAGs transaction by transaction —
// structure and metadata directly, parameter vectors through ParamsOf so a
// compacted DAG's frozen epochs are rehydrated from their spill files.
func assertDAGsEquivalent(t *testing.T, ref, got *dag.DAG) {
	t.Helper()
	if ref.Size() != got.Size() {
		t.Fatalf("DAG sizes differ: %d vs %d", ref.Size(), got.Size())
	}
	for _, rtx := range ref.All() {
		gtx := got.MustGet(rtx.ID)
		if rtx.Issuer != gtx.Issuer || rtx.Round != gtx.Round || rtx.Meta != gtx.Meta {
			t.Fatalf("tx %d differs: %+v vs %+v", rtx.ID, rtx, gtx)
		}
		if len(rtx.Parents) != len(gtx.Parents) {
			t.Fatalf("tx %d parent counts differ", rtx.ID)
		}
		for i := range rtx.Parents {
			if rtx.Parents[i] != gtx.Parents[i] {
				t.Fatalf("tx %d parent %d differs: %d vs %d", rtx.ID, i, rtx.Parents[i], gtx.Parents[i])
			}
		}
		rp, err := ref.ParamsOf(rtx.ID)
		if err != nil {
			t.Fatalf("reference ParamsOf(%d): %v", rtx.ID, err)
		}
		gp, err := got.ParamsOf(rtx.ID)
		if err != nil {
			t.Fatalf("compacted ParamsOf(%d): %v", rtx.ID, err)
		}
		if len(rp) != len(gp) {
			t.Fatalf("tx %d param dims differ: %d vs %d", rtx.ID, len(rp), len(gp))
		}
		for i := range rp {
			if rp[i] != gp[i] {
				t.Fatalf("tx %d param %d differs: %v vs %v", rtx.ID, i, rp[i], gp[i])
			}
		}
	}
}

// TestCompactionEquivalenceSync pins the tentpole claim for the round
// engine: identical history and final DAG with compaction on or off, across
// worker counts.
func TestCompactionEquivalenceSync(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers-1", 4: "workers-4"}[workers], func(t *testing.T) {
			cfg := smallConfig()
			cfg.Rounds = 24
			cfg.Selector = bandedSelector()
			cfg.Workers = workers
			fed := smallFed(31)

			ref, err := NewSimulation(fed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refHist := runAll(ref)

			ccfg := cfg
			ccfg.Compaction = dag.Compaction{Width: 3, Live: 2, SpillDir: t.TempDir()}
			comp, err := NewSimulation(smallFed(31), ccfg)
			if err != nil {
				t.Fatal(err)
			}
			compHist := runAll(comp)

			if comp.DAG().LiveFloor() == 0 {
				t.Fatal("compaction never froze an epoch; the equivalence run is vacuous")
			}
			assertHistoriesIdentical(t, refHist, compHist)
			assertDAGsEquivalent(t, ref.DAG(), comp.DAG())
		})
	}
}

// TestCompactionEquivalenceAsync pins the tentpole claim for the
// event-driven engine: identical event stream, final statistics and final
// DAG with compaction on or off, across worker counts.
func TestCompactionEquivalenceAsync(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers-1", 4: "workers-4"}[workers], func(t *testing.T) {
			cfg := asyncConfig()
			cfg.Duration = 45
			cfg.Selector = bandedSelector()
			cfg.Workers = workers
			fedSeed := int64(32)

			ref, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			refEvents := drainAsync(ref)

			ccfg := cfg
			ccfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: t.TempDir()}
			comp, err := NewAsyncSimulation(smallFed(fedSeed), ccfg)
			if err != nil {
				t.Fatal(err)
			}
			compEvents := drainAsync(comp)

			if comp.DAG().LiveFloor() == 0 {
				t.Fatal("compaction never froze an epoch; the equivalence run is vacuous")
			}
			assertAsyncEventsIdentical(t, refEvents, compEvents)
			assertAsyncResultsIdentical(t, ref.Result(), comp.Result())
			assertDAGsEquivalent(t, ref.DAG(), comp.DAG())
		})
	}
}

// TestCompactionEquivalenceDeadCones pins byte-identity for the guard's
// dead-cone exclusion. With a wide entry band, the pre-band-era DAG strands
// orphan tips that no walk can ever reach again; the guard must freeze past
// them (without the exclusion they would pin it at round ~0 forever) while
// still not changing a byte of the run. Seed 31 over this configuration is
// known to freeze several orphan tips below the live floor — the test
// asserts that, so the exclusion path is provably exercised, then demands
// full event-stream and DAG equivalence against the keep-everything run.
func TestCompactionEquivalenceDeadCones(t *testing.T) {
	cfg := asyncConfig()
	cfg.Duration = 240
	cfg.Selector = tipselect.AccuracyWalk{Alpha: 10, DepthMin: 8, DepthMax: 16}
	fedSeed := int64(31)

	ref, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refEvents := drainAsync(ref)

	ccfg := cfg
	ccfg.Compaction = dag.Compaction{Width: 30, Live: 2, SpillDir: t.TempDir()}
	comp, err := NewAsyncSimulation(smallFed(fedSeed), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	compEvents := drainAsync(comp)

	floor := comp.DAG().LiveFloor()
	if floor == 0 {
		t.Fatal("compaction never froze an epoch; the dead-cone run is vacuous")
	}
	deadFrozen := 0
	for _, id := range comp.DAG().Tips() {
		if id < floor {
			deadFrozen++
		}
	}
	if deadFrozen == 0 {
		t.Fatalf("no orphan tip below the live floor %d; dead-cone exclusion never engaged", floor)
	}
	t.Logf("froze past %d orphan tips (live floor %d of %d txs)", deadFrozen, floor, comp.DAG().Size())

	assertAsyncEventsIdentical(t, refEvents, compEvents)
	assertAsyncResultsIdentical(t, ref.Result(), comp.Result())
	assertDAGsEquivalent(t, ref.DAG(), comp.DAG())
}

// TestCompactionCrashAnywhereResumeAsync extends the crash-anywhere contract
// to compacted runs: a checkpoint taken at every event index of a compacting
// run — epoch summaries and the truncated live-suffix DAG riding in the
// snapshot — resumes into a run whose remaining events, statistics and
// final DAG match the uninterrupted compacted reference bit for bit.
func TestCompactionCrashAnywhereResumeAsync(t *testing.T) {
	cfg := asyncConfig()
	cfg.Duration = 30
	cfg.Selector = bandedSelector()
	cfg.Workers = 2
	cfg.Compaction = dag.Compaction{Width: 4, Live: 2, SpillDir: t.TempDir()}
	fedSeed := int64(33)

	ckpts, refEvents, ref := asyncCheckpointsAtEveryEvent(t, cfg, fedSeed)
	if ref.DAG().LiveFloor() == 0 {
		t.Fatal("compaction never froze an epoch; the crash-anywhere run is vacuous")
	}
	refDAG := asyncDAGBytes(t, ref)
	sawFrozen := false
	for _, c := range ckpts {
		info, _, err := InspectCheckpoint(bytes.NewReader(c.blob))
		if err != nil {
			t.Fatalf("inspect at event %d: %v", c.k, err)
		}
		sawFrozen = sawFrozen || info.FrozenEpochs > 0
		resumeAsyncAndCompare(t, cfg, fedSeed, c.k, c.blob, refEvents, ref, refDAG)
	}
	if !sawFrozen {
		t.Fatal("no checkpoint carried frozen epoch state")
	}
}

// TestCompactionCrashAnywhereResumeSync is the synchronous counterpart:
// every round boundary of a compacting run must resume bit-identically.
func TestCompactionCrashAnywhereResumeSync(t *testing.T) {
	// Seed 31 is known (from the equivalence suite) to produce a run where
	// epochs actually freeze: an early orphan tip would otherwise hold the
	// guard at round 0 forever, making the test vacuous.
	cfg := smallConfig()
	cfg.Rounds = 24
	cfg.Selector = bandedSelector()
	cfg.Workers = 2
	cfg.Compaction = dag.Compaction{Width: 3, Live: 2, SpillDir: t.TempDir()}
	fedSeed := int64(31)

	ckpts, refHist, ref := syncCheckpointsAtEveryRound(t, cfg, fedSeed)
	if ref.DAG().LiveFloor() == 0 {
		t.Fatal("compaction never froze an epoch; the crash-anywhere run is vacuous")
	}
	refDAG := dagBytes(t, ref)
	for k, ckpt := range ckpts {
		resumed, err := ResumeSimulation(smallFed(fedSeed), cfg, bytes.NewReader(ckpt))
		if err != nil {
			t.Fatalf("resume at round %d: %v", k, err)
		}
		resHist := runAll(resumed)
		assertHistoriesIdentical(t, refHist, resHist)
		if !bytes.Equal(refDAG, dagBytes(t, resumed)) {
			t.Fatalf("resume at round %d: serialized DAGs differ byte-for-byte", k)
		}
	}
}

// TestCompactionCheckpointSizeTracksLiveSuffix is the bounded-checkpoint
// half of the acceptance bar: once epochs freeze, a compacted checkpoint
// must be much smaller than the keep-everything one at the same point.
func TestCompactionCheckpointSizeTracksLiveSuffix(t *testing.T) {
	// Seed 32 matches the async equivalence run, where epochs are known to
	// freeze under this width/horizon.
	cfg := asyncConfig()
	cfg.Duration = 45
	cfg.Selector = bandedSelector()
	fedSeed := int64(32)

	ref, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	drainAsync(ref)
	var refSnap bytes.Buffer
	if _, err := ref.WriteCheckpoint(&refSnap); err != nil {
		t.Fatal(err)
	}

	ccfg := cfg
	ccfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: t.TempDir()}
	comp, err := NewAsyncSimulation(smallFed(fedSeed), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	drainAsync(comp)
	var compSnap bytes.Buffer
	if _, err := comp.WriteCheckpoint(&compSnap); err != nil {
		t.Fatal(err)
	}

	floor := int(comp.DAG().LiveFloor())
	if floor == 0 {
		t.Fatal("nothing froze")
	}
	frozenFrac := float64(floor) / float64(comp.DAG().Size())
	// The frozen transactions' parameter vectors dominate checkpoint size;
	// releasing them must shrink the snapshot roughly in proportion.
	if got, want := float64(compSnap.Len())/float64(refSnap.Len()), 1-frozenFrac/2; got > want {
		t.Fatalf("compacted checkpoint is %.2fx the reference (floor %d/%d txs); want <= %.2fx",
			got, floor, comp.DAG().Size(), want)
	}
}

// TestCompactionOlderSpillGeneration: a checkpoint whose frozen epochs name
// per-epoch spill files, as builds before the spill log wrote them, does not
// resume into a directory of the other generation: the error names it.
func TestCompactionOlderSpillGeneration(t *testing.T) {
	cfg := asyncConfig()
	cfg.Duration = 45
	cfg.Selector = bandedSelector()
	cfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: t.TempDir()}
	a, err := NewAsyncSimulation(smallFed(32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	drainAsync(a)
	cp := a.Checkpoint().(*Checkpoint)
	epochs := cp.state.common().Epochs // the checkpoint's own copy
	if len(epochs) < 2 || epochs[1].SpillFile == "" {
		t.Fatalf("froze %+v, want a spilled epoch 1", epochs)
	}
	epochs[1].SpillFile = "epoch-000001.sds"
	var blob bytes.Buffer
	if _, err := cp.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	_, err = ResumeAsyncSimulation(smallFed(32), cfg, &blob)
	if want := `"epoch-000001.sds": one file per epoch is an older spill generation`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume: %v, want an error containing %s", err, want)
	}
}

// TestCompactionSpillFailureIsAnError: a spill directory that disappears
// mid-run (or fills up) fails the first freeze. Both engines must hand that
// to engine.Run's caller as an error that still matches the filesystem's —
// not panic — with every epoch unfrozen and every parameter vector in place,
// and carry on once the directory is back.
func TestCompactionSpillFailureIsAnError(t *testing.T) {
	type sim interface {
		engine.Engine
		DAG() *dag.DAG
	}
	engines := []struct {
		name  string
		build func(t *testing.T, spill string) sim
	}{
		{"sync", func(t *testing.T, spill string) sim {
			cfg := smallConfig()
			cfg.Rounds = 36 // seed 31 first freezes at round 24; leave rounds to rerun
			cfg.Selector = bandedSelector()
			cfg.Compaction = dag.Compaction{Width: 3, Live: 2, SpillDir: spill}
			s, err := NewSimulation(smallFed(31), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"async", func(t *testing.T, spill string) sim {
			cfg := asyncConfig()
			cfg.Duration = 45
			cfg.Selector = bandedSelector()
			cfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: spill}
			a, err := NewAsyncSimulation(smallFed(32), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			spill := t.TempDir() + "/spill"
			s := e.build(t, spill)
			if err := os.Remove(spill); err != nil { // created by SetCompaction
				t.Fatal(err)
			}
			rep, err := engine.Run(context.Background(), s)
			if err == nil {
				t.Fatalf("run completed (%+v) although no epoch could be spilled", rep)
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("error does not wrap the filesystem's: %v", err)
			}
			d := s.DAG()
			if d.LiveFloor() != 0 || len(d.FrozenEpochs()) != 0 {
				t.Fatalf("failed freeze left floor %d and %d frozen epochs", d.LiveFloor(), len(d.FrozenEpochs()))
			}
			for _, tx := range d.All() {
				if len(tx.Params) == 0 {
					t.Fatalf("failed freeze released the params of tx %d", tx.ID)
				}
			}
			// With the directory restored, the same engine finishes and freezes.
			if err := os.Mkdir(spill, 0o755); err != nil {
				t.Fatal(err)
			}
			if rep, err := engine.Run(context.Background(), s); err != nil || !rep.Completed {
				t.Fatalf("rerun after restoring the spill directory: %+v, %v", rep, err)
			}
			if d.LiveFloor() == 0 {
				t.Fatal("nothing froze after the spill directory came back")
			}
		})
	}
}

// TestCompactionConfigRejections pins the restrictions that make the safety
// argument hold: no fault injection, no partial visibility, and a selector
// with a depth band.
func TestCompactionConfigRejections(t *testing.T) {
	comp := dag.Compaction{Width: 5, Live: 2}

	t.Run("sync reveal delay", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Selector = bandedSelector()
		cfg.Compaction = comp
		cfg.RevealDelay = 2
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "ideal broadcast") {
			t.Fatalf("RevealDelay + Compaction accepted: %v", err)
		}
	})
	t.Run("async faults", func(t *testing.T) {
		cfg := asyncConfig()
		cfg.Selector = bandedSelector()
		cfg.Compaction = comp
		cfg.NetworkDelay = 0
		cfg.Faults = faults.Scalar(0.5)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Faults") {
			t.Fatalf("Faults + Compaction accepted: %v", err)
		}
	})
	t.Run("unbanded accuracy walk", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Compaction = comp // default selector has no depth band
		if _, err := NewSimulation(smallFed(36), cfg); err == nil || !strings.Contains(err.Error(), "depth band") {
			t.Fatalf("unbanded selector accepted: %v", err)
		}
	})
	t.Run("weighted walk", func(t *testing.T) {
		cfg := asyncConfig()
		cfg.Selector = tipselect.WeightedWalk{Alpha: 1, DepthMin: 2, DepthMax: 5}
		cfg.Compaction = comp
		if _, err := NewAsyncSimulation(smallFed(37), cfg); err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Fatalf("weighted walk accepted: %v", err)
		}
	})
	t.Run("resume under different compaction", func(t *testing.T) {
		cfg := asyncConfig()
		cfg.Duration = 10
		cfg.Selector = bandedSelector()
		cfg.Compaction = comp
		a, err := NewAsyncSimulation(smallFed(38), cfg)
		if err != nil {
			t.Fatal(err)
		}
		drainAsync(a)
		var snap bytes.Buffer
		if _, err := a.WriteCheckpoint(&snap); err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.Compaction = dag.Compaction{}
		if _, err := ResumeAsyncSimulation(smallFed(38), other, bytes.NewReader(snap.Bytes())); err == nil {
			t.Fatal("resume under a different compaction config accepted")
		}
	})
}
