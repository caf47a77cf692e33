package core

import (
	"testing"
	"time"

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

// assertHistoriesIdentical compares two RoundResult histories field by field.
// WalkDurations is wall-clock and excluded; everything else must be
// bit-identical.
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
		{"gate-off-measure-time", func(c *Config) { c.DisablePublishGate = true; c.MeasureWalkTime = true }},
		{"weighted-walk", func(c *Config) { c.Selector = tipselect.WeightedWalk{Alpha: 0.1} }},
		// Uncached scoring with a multi-walk reference: every one of the five
		// selections per activation re-evaluates from scratch.
		{"memo-disabled", func(c *Config) { c.EvalScope = EvalScopeNone; c.ReferenceWalks = 3 }},
		{"eval-scope-none", func(c *Config) { c.EvalScope = EvalScopeNone }},
		// Grow the tangle past the parallel cumulative-weight threshold with
		// a shared budget, so the Workers=8 run exercises the level-parallel
		// sweep (and the nested budget accounting) while Workers=1 stays on
		// the sequential sweep — the sweeps must agree bit for bit.
		{"weighted-walk-parallel-sweep", func(c *Config) {
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

// TestAsyncWorkerCountInvariance: the async engine's per-event evaluation
// fan-out must not change results either.
func TestAsyncWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *AsyncResult {
		cfg := asyncConfig()
		cfg.Workers = workers
		res, err := runAsync(smallFed(70), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Transactions != b.Transactions {
		t.Fatalf("DAG size differs across worker counts: %d vs %d", a.Transactions, b.Transactions)
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatalf("client %d stats differ: %+v vs %+v", i, a.Clients[i], b.Clients[i])
		}
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

// TestMeanWalkDurationEmpty guards the MeasureWalkTime-off path: a round
// with no recorded walk durations must report 0, not divide by zero.
func TestMeanWalkDurationEmpty(t *testing.T) {
	var rr RoundResult
	if got := rr.MeanWalkDuration(); got != 0 {
		t.Fatalf("MeanWalkDuration on empty slice = %v, want 0", got)
	}
	rr.WalkDurations = []time.Duration{2 * time.Millisecond, 4 * time.Millisecond}
	if got := rr.MeanWalkDuration(); got != 3*time.Millisecond {
		t.Fatalf("MeanWalkDuration = %v, want 3ms", got)
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
