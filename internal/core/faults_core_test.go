package core

// Tests for the fault-injection threading through both engines: the scalar
// compatibility pin (faults.Scalar must reproduce the historical NetworkDelay
// numerics bit for bit), worker-count invariance under a composed
// partition × churn × straggler schedule, the crash-anywhere resume contract
// under that same chaos schedule (checkpoints landing mid-partition and
// mid-churn included), the synchronous engine's partition/churn semantics,
// and the checkpoint resume guards that reject schedule changes.

import (
	"bytes"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/par"
)

// chaosFaults is the composed chaos schedule used across the async fault
// tests: jittered per-link latency with drops and duplicates, one
// split-and-heal partition, stragglers and churn. Times suit a Duration≈6
// run, so checkpoints land mid-partition and mid-crash-window.
func chaosFaults() faults.Config {
	return faults.Config{
		Delay:         0.5,
		Jitter:        0.4,
		DropProb:      0.1,
		Retransmit:    1,
		DupProb:       0.1,
		Partitions:    []faults.Partition{{From: 1.5, To: 4, Groups: 2}},
		StragglerFrac: 0.25, StragglerFactor: 3,
		ChurnFrac: 0.25, MaxDowntime: 3,
	}
}

// TestAsyncScalarFaultCompat pins the compatibility contract: a fault
// schedule that is exactly the uniform broadcast delay routes the engine
// through its original scalar code path, so events, statistics and the DAG
// are bit-identical to the historical NetworkDelay configuration.
func TestAsyncScalarFaultCompat(t *testing.T) {
	base := asyncConfig()
	base.Duration = 15

	compat := base
	compat.NetworkDelay = 0
	compat.Faults = faults.Scalar(base.NetworkDelay)

	fedSeed := int64(400)
	runOne := func(cfg AsyncConfig) ([]AsyncEvent, *AsyncSimulation) {
		a, err := NewAsyncSimulation(smallFed(fedSeed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return drainAsync(a), a
	}
	refEvents, ref := runOne(base)
	gotEvents, got := runOne(compat)

	assertAsyncEventsIdentical(t, refEvents, gotEvents)
	assertAsyncResultsIdentical(t, ref.Result(), got.Result())
	if !bytes.Equal(asyncDAGBytes(t, ref), asyncDAGBytes(t, got)) {
		t.Fatal("scalar fault schedule produced a different DAG than the equivalent NetworkDelay")
	}
	if r := got.Result(); r.Deliveries != 0 || r.DroppedDeliveries != 0 || r.DuplicatedDeliveries != 0 {
		t.Fatalf("uniform schedule must not price individual links, got %+v", r)
	}
}

// TestAsyncFaultWorkerInvariance pins that a run under the full chaos
// schedule is bit-identical for any worker count: the fault schedule is a
// pure function of seed splits keyed on stable identifiers, never on
// scheduling order.
func TestAsyncFaultWorkerInvariance(t *testing.T) {
	cfg := asyncConfig()
	cfg.Duration = 6
	cfg.NetworkDelay = 0
	cfg.Faults = chaosFaults()
	fedSeed := int64(410)

	runWith := func(workers int, pool *par.Budget) ([]AsyncEvent, *AsyncSimulation) {
		c := cfg
		c.Workers = workers
		c.Pool = pool
		a, err := NewAsyncSimulation(smallFed(fedSeed), c)
		if err != nil {
			t.Fatal(err)
		}
		return drainAsync(a), a
	}
	refEvents, ref := runWith(1, nil)
	gotEvents, got := runWith(4, par.NewBudget(4))

	assertAsyncEventsIdentical(t, refEvents, gotEvents)
	assertAsyncResultsIdentical(t, ref.Result(), got.Result())
	if !bytes.Equal(asyncDAGBytes(t, ref), asyncDAGBytes(t, got)) {
		t.Fatal("worker count changed the DAG under the chaos schedule")
	}
	if r := ref.Result(); r.Deliveries == 0 {
		t.Fatal("chaos schedule priced no link deliveries — the fault path did not engage")
	}
	if r1, r4 := ref.Result(), got.Result(); r1.Deliveries != r4.Deliveries ||
		r1.DroppedDeliveries != r4.DroppedDeliveries || r1.DuplicatedDeliveries != r4.DuplicatedDeliveries {
		t.Fatalf("communication statistics differ across worker counts: %+v vs %+v", r1, r4)
	}
}

// TestCrashAnywhereResumeEquivalenceAsyncChaos extends the crash-anywhere
// suite to the chaos schedule: a checkpoint taken after *every* event —
// including ones landing mid-partition and inside client crash windows —
// must resume into a bit-identical remainder.
func TestCrashAnywhereResumeEquivalenceAsyncChaos(t *testing.T) {
	cfg := asyncConfig()
	cfg.Duration = 6
	cfg.NetworkDelay = 0
	cfg.Faults = chaosFaults()
	cfg.Workers = 2
	fedSeed := int64(420)

	ckpts, refEvents, ref := asyncCheckpointsAtEveryEvent(t, cfg, fedSeed)
	if len(refEvents) < 8 {
		t.Fatalf("only %d events; the every-index sweep needs a denser run", len(refEvents))
	}
	// The schedule must actually bite: some checkpoint lands inside the
	// partition window, and churn selected at least one client.
	p := cfg.Faults.Partitions[0]
	mid := false
	for _, ev := range refEvents {
		if ev.Time >= p.From && ev.Time < p.To {
			mid = true
			break
		}
	}
	if !mid {
		t.Fatal("no event (hence no checkpoint) landed inside the partition window")
	}
	if ref.net == nil {
		t.Fatal("chaos schedule did not instantiate a fault model")
	}
	crashed := 0
	for _, c := range ref.clients {
		if _, ok := ref.net.CrashWindow(c.id); ok {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("churn selected no clients")
	}

	refDAG := asyncDAGBytes(t, ref)
	for _, c := range ckpts {
		resumeAsyncAndCompare(t, cfg, fedSeed, c.k, c.blob, refEvents, ref, refDAG)
	}
}

// TestSyncFaults pins the synchronous engine's fault semantics: churn skips
// sampled activations deterministically, partitions change what clients see
// (so results diverge from the fault-free baseline), and the crash-anywhere
// resume contract holds at every round under the schedule.
func TestSyncFaults(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = faults.Config{
		Partitions: []faults.Partition{{From: 3, To: 7, Groups: 2}},
		ChurnFrac:  0.25, MaxDowntime: 4,
	}
	fedSeed := int64(430)

	ckpts, refHist, ref := syncCheckpointsAtEveryRound(t, cfg, fedSeed)
	refDAG := dagBytes(t, ref)
	if ref.net == nil {
		t.Fatal("schedule did not instantiate a fault model")
	}

	// Churn: some round ran with fewer than the sampled ClientsPerRound.
	short := false
	for _, r := range refHist {
		if len(r.Active) < cfg.ClientsPerRound {
			short = true
			break
		}
	}
	if !short {
		t.Fatal("churn never removed a sampled client — widen the schedule")
	}

	// Determinism: an independent run reproduces the history exactly.
	again, err := NewSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertHistoriesIdentical(t, refHist, runAll(again))

	// The schedule must matter: the fault-free baseline diverges.
	baseCfg := smallConfig()
	base, err := NewSimulation(smallFed(fedSeed), baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	baseHist := runAll(base)
	same := len(baseHist) == len(refHist)
	if same {
		for i := range refHist {
			if len(refHist[i].Active) != len(baseHist[i].Active) ||
				refHist[i].MeanTrainedAcc() != baseHist[i].MeanTrainedAcc() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("partition+churn schedule reproduced the fault-free history exactly")
	}

	// Crash-anywhere: every round index resumes bit-identically.
	for k, ckpt := range ckpts {
		resumed, err := ResumeSimulation(smallFed(fedSeed), cfg, bytes.NewReader(ckpt))
		if err != nil {
			t.Fatalf("resume at round %d: %v", k, err)
		}
		assertHistoriesIdentical(t, refHist, runAll(resumed))
		if !bytes.Equal(refDAG, dagBytes(t, resumed)) {
			t.Fatalf("resume at round %d: serialized DAGs differ byte-for-byte", k)
		}
	}
}

// TestFaultResumeGuards pins that snapshots refuse to resume under a
// different fault schedule (both engines) and that a faulted synchronous run
// cannot extend its horizon (the schedule is drawn against it).
func TestFaultResumeGuards(t *testing.T) {
	t.Run("async-schedule-change", func(t *testing.T) {
		cfg := asyncConfig()
		cfg.Duration = 4
		cfg.NetworkDelay = 0
		cfg.Faults = chaosFaults()
		a, err := NewAsyncSimulation(smallFed(440), cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.step()
		var buf bytes.Buffer
		if _, err := a.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.Faults.Jitter = 0.2
		if _, err := ResumeAsyncSimulation(smallFed(440), other, bytes.NewReader(buf.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "fault schedule") {
			t.Fatalf("resume under a different schedule: got %v, want a fault-schedule error", err)
		}
		if _, err := ResumeAsyncSimulation(smallFed(440), cfg, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("resume under the original schedule: %v", err)
		}
	})
	t.Run("sync-schedule-change-and-horizon", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Rounds = 4
		cfg.Faults = faults.Config{ChurnFrac: 0.25, MaxDowntime: 2}
		s, err := NewSimulation(smallFed(441), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.RunRound()
		var buf bytes.Buffer
		if _, err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.Faults.ChurnFrac = 0.5
		if _, err := ResumeSimulation(smallFed(441), other, bytes.NewReader(buf.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "fault schedule") {
			t.Fatalf("resume under a different schedule: got %v, want a fault-schedule error", err)
		}
		longer := cfg
		longer.Rounds = 8
		if _, err := ResumeSimulation(smallFed(441), longer, bytes.NewReader(buf.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "horizon") {
			t.Fatalf("resume with an extended horizon: got %v, want a horizon error", err)
		}
		if _, err := ResumeSimulation(smallFed(441), cfg, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("resume under the original schedule: %v", err)
		}
	})
	t.Run("network-delay-conflict", func(t *testing.T) {
		cfg := asyncConfig() // NetworkDelay 0.5
		cfg.Faults = faults.Scalar(0.5)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "conflicts") {
			t.Fatalf("NetworkDelay + enabled Faults: got %v, want a conflict error", err)
		}
	})
}
