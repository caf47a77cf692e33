package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// runWithWorkers executes a full simulation with the given worker count and
// returns its history and final tangle.
func runWithWorkers(t *testing.T, cfg Config, fedSeed int64, workers int) ([]RoundResult, *Simulation) {
	t.Helper()
	cfg.Workers = workers
	sim, err := NewSimulation(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runAll(sim), sim
}

// assertHistoriesIdentical compares two RoundResult histories field by field;
// every field must be bit-identical.
func assertHistoriesIdentical(t *testing.T, a, b []RoundResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for r := range a {
		x, y := a[r], b[r]
		if x.Round != y.Round {
			t.Fatalf("round %d: Round %d vs %d", r, x.Round, y.Round)
		}
		eqInts := func(name string, xs, ys []int) {
			if len(xs) != len(ys) {
				t.Fatalf("round %d: %s lengths differ", r, name)
			}
			for i := range xs {
				if xs[i] != ys[i] {
					t.Fatalf("round %d: %s[%d] = %d vs %d", r, name, i, xs[i], ys[i])
				}
			}
		}
		eqFloats := func(name string, xs, ys []float64) {
			if len(xs) != len(ys) {
				t.Fatalf("round %d: %s lengths differ", r, name)
			}
			for i := range xs {
				if xs[i] != ys[i] {
					t.Fatalf("round %d: %s[%d] = %v vs %v", r, name, i, xs[i], ys[i])
				}
			}
		}
		eqInts("Active", x.Active, y.Active)
		eqFloats("TrainedAcc", x.TrainedAcc, y.TrainedAcc)
		eqFloats("TrainedLoss", x.TrainedLoss, y.TrainedLoss)
		eqFloats("RefAcc", x.RefAcc, y.RefAcc)
		eqFloats("RefLoss", x.RefLoss, y.RefLoss)
		eqFloats("FlippedFrac", x.FlippedFrac, y.FlippedFrac)
		eqInts("RefPoisonedApprovals", x.RefPoisonedApprovals, y.RefPoisonedApprovals)
		if len(x.Published) != len(y.Published) {
			t.Fatalf("round %d: Published lengths differ", r)
		}
		for i := range x.Published {
			if x.Published[i] != y.Published[i] {
				t.Fatalf("round %d: Published[%d] differs", r, i)
			}
		}
		if len(x.RefTx) != len(y.RefTx) {
			t.Fatalf("round %d: RefTx lengths differ", r)
		}
		for i := range x.RefTx {
			if x.RefTx[i] != y.RefTx[i] {
				t.Fatalf("round %d: RefTx[%d] = %d vs %d", r, i, x.RefTx[i], y.RefTx[i])
			}
		}
		if len(x.ActivePoisoned) != len(y.ActivePoisoned) {
			t.Fatalf("round %d: ActivePoisoned lengths differ", r)
		}
		for i := range x.ActivePoisoned {
			if x.ActivePoisoned[i] != y.ActivePoisoned[i] {
				t.Fatalf("round %d: ActivePoisoned[%d] differs", r, i)
			}
		}
		if x.Walk != y.Walk {
			t.Fatalf("round %d: WalkStats %+v vs %+v", r, x.Walk, y.Walk)
		}
	}
}

// assertDAGsIdentical compares every transaction of two tangles.
func assertDAGsIdentical(t *testing.T, a, b *Simulation) {
	t.Helper()
	txa, txb := a.DAG().All(), b.DAG().All()
	if len(txa) != len(txb) {
		t.Fatalf("DAG sizes differ: %d vs %d", len(txa), len(txb))
	}
	for i := range txa {
		x, y := txa[i], txb[i]
		if x.ID != y.ID || x.Issuer != y.Issuer || x.Round != y.Round || x.Meta != y.Meta {
			t.Fatalf("tx %d: header differs: %+v vs %+v", i, x, y)
		}
		if len(x.Parents) != len(y.Parents) {
			t.Fatalf("tx %d: parent counts differ", i)
		}
		for j := range x.Parents {
			if x.Parents[j] != y.Parents[j] {
				t.Fatalf("tx %d: parent %d = %d vs %d", i, j, x.Parents[j], y.Parents[j])
			}
		}
		if len(x.Params) != len(y.Params) {
			t.Fatalf("tx %d: param counts differ", i)
		}
		for j := range x.Params {
			if x.Params[j] != y.Params[j] {
				t.Fatalf("tx %d: param %d = %v vs %v", i, j, x.Params[j], y.Params[j])
			}
		}
	}
}

// TestWorkerCountInvariance is the parallel engine's core guarantee: a
// Workers=1 run and a Workers=8 run of the same configuration produce
// bit-identical round histories and DAG contents, across every feature that
// touches the per-client code path (poisoning, reference averaging, partial
// sharing, partial visibility, the publish gate, and walk accounting).
func TestWorkerCountInvariance(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline", func(c *Config) {}},
		{"poisoned", func(c *Config) {
			c.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4, RandomAttackers: 1}
		}},
		{"reference-walks-3", func(c *Config) { c.ReferenceWalks = 3 }},
		{"partial-sharing", func(c *Config) { c.SharedLayers = 1 }},
		{"reveal-delay", func(c *Config) { c.RevealDelay = 2 }},
		{"gate-off", func(c *Config) { c.DisablePublishGate = true }},
		{"weighted-walk", func(c *Config) { c.Selector = tipselect.WeightedWalk{Alpha: 0.1} }},
		// Uncached scoring with a multi-walk reference: every one of the five
		// selections per activation re-evaluates from scratch.
		{"memo-disabled", func(c *Config) { c.EvalScope = EvalScopeNone; c.ReferenceWalks = 3 }},
		{"eval-scope-none", func(c *Config) { c.EvalScope = EvalScopeNone }},
		// Weighted walks over a tangle of more than 128 transactions, the
		// clients fanned out over a shared budget: Workers=1 and Workers=8
		// must agree bit for bit.
		{"weighted-walk-large", func(c *Config) {
			c.Selector = tipselect.WeightedWalk{Alpha: 0.1}
			c.DisablePublishGate = true
			c.Rounds = 23
			c.Pool = par.NewBudget(4)
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.ClientsPerRound = 6
			tc.mutate(&cfg)
			fedSeed := int64(60 + i)
			seqHist, seqSim := runWithWorkers(t, cfg, fedSeed, 1)
			parHist, parSim := runWithWorkers(t, cfg, fedSeed, 8)
			assertHistoriesIdentical(t, seqHist, parHist)
			assertDAGsIdentical(t, seqSim, parSim)
		})
	}
}

// TestAsyncWorkerCountInvariance: the lookahead windows' fan-out must not
// move a bit. Workers 1 (every window computed inline), 2 and 8 on one shared
// budget produce the same events, Result() and tangle bytes — across the
// window bounds (delay below and above MinCycle, no delay), compaction
// spilling to disk, reference averaging, the weighted walk, the scalar fault
// schedule and a non-uniform one (windows of one activation). The delayed
// cases must really have formed windows of more than one activation.
func TestAsyncWorkerCountInvariance(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*AsyncConfig)
		windows bool // windows of more than one activation must form
	}{
		{"delay-below-min-cycle", func(c *AsyncConfig) {}, true},
		{"delay-above-min-cycle", func(c *AsyncConfig) { c.MinCycle, c.MaxCycle = 0.2, 3 }, true},
		{"delay-3", func(c *AsyncConfig) { c.NetworkDelay = 3 }, true},
		{"no-delay", func(c *AsyncConfig) { c.NetworkDelay = 0 }, false},
		{"reference-walks-3", func(c *AsyncConfig) { c.ReferenceWalks = 3 }, true},
		{"weighted-walk", func(c *AsyncConfig) { c.Selector = tipselect.WeightedWalk{Alpha: 0.1} }, true},
		{"compaction", func(c *AsyncConfig) {
			c.Duration = 45
			c.Selector = bandedSelector()
			c.Compaction = dag.Compaction{Width: 5, Live: 2} // each run spills into a directory of its own
		}, true},
		{"scalar-faults", func(c *AsyncConfig) { c.NetworkDelay, c.Faults = 0, faults.Scalar(0.5) }, true},
		{"fault-schedule", func(c *AsyncConfig) { c.NetworkDelay, c.Faults = 0, chaosFaults() }, false},
	}
	type outcome struct {
		events []AsyncEvent
		result *AsyncResult
		tangle []byte
		widest int
		floor  dag.ID
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := par.NewBudget(8)
			run := func(workers int) outcome {
				cfg := asyncConfig()
				tc.mutate(&cfg)
				if cfg.Compaction.Enabled() {
					cfg.Compaction.SpillDir = t.TempDir()
				}
				cfg.Workers, cfg.Pool = workers, pool
				a, err := NewAsyncSimulation(smallFed(int64(70+i)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				events := drainAsync(a)
				res := a.Result()
				res.DAG = nil
				return outcome{events, res, asyncDAGBytes(t, a), a.widest, a.DAG().LiveFloor()}
			}
			ref := run(1)
			if tc.windows != (ref.widest > 1) {
				t.Fatalf("widest lookahead window held %d activations; windows of more than one expected: %v", ref.widest, tc.windows)
			}
			if tc.name == "compaction" && ref.floor == 0 {
				t.Fatal("compaction never froze an epoch; the case is vacuous")
			}
			for _, workers := range []int{2, 8} {
				got := run(workers)
				assertAsyncEventsIdentical(t, ref.events, got.events)
				if !reflect.DeepEqual(ref.result, got.result) {
					t.Fatalf("workers %d: Result() = %+v, want %+v", workers, got.result, ref.result)
				}
				if !bytes.Equal(ref.tangle, got.tangle) {
					t.Fatalf("workers %d: DAG().WriteTo differs", workers)
				}
			}
		})
	}
}

func TestWorkersValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers should be rejected")
	}
	acfg := asyncConfig()
	acfg.Workers = -1
	if err := acfg.Validate(); err == nil {
		t.Error("negative async Workers should be rejected")
	}
}

// benchmarkRoundWorkers measures RunRound at a fixed worker count; compare
// the Workers1 and WorkersMax variants for the engine's wall-clock speedup.
func benchmarkRoundWorkers(b *testing.B, workers int) {
	fed := smallFed(16)
	cfg := smallConfig()
	cfg.ClientsPerRound = 8
	cfg.Rounds = b.N + 1
	cfg.Workers = workers
	sim, err := NewSimulation(fed, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunRound()
	}
}

func BenchmarkSimulationRoundWorkers1(b *testing.B)   { benchmarkRoundWorkers(b, 1) }
func BenchmarkSimulationRoundWorkers4(b *testing.B)   { benchmarkRoundWorkers(b, 4) }
func BenchmarkSimulationRoundWorkersMax(b *testing.B) { benchmarkRoundWorkers(b, 0) }
