package core

import (
	"math"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
)

func smallFed(seed int64) *dataset.Federation {
	return dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients:        12,
		TrainPerClient: 60,
		TestPerClient:  15,
		Seed:           seed,
	})
}

func smallConfig() Config {
	return Config{
		Rounds:          12,
		ClientsPerRound: 4,
		Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Selector:        tipselect.AccuracyWalk{Alpha: 10},
		Seed:            1,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"no rounds", func(c *Config) { c.Rounds = 0 }, true},
		{"no clients", func(c *Config) { c.ClientsPerRound = 0 }, true},
		{"bad arch", func(c *Config) { c.Arch.Out = 0 }, true},
		{"negative ref walks", func(c *Config) { c.ReferenceWalks = -1 }, true},
		{"bad poison fraction", func(c *Config) { c.Poison.Fraction = 1.5 }, true},
		{"negative poison fraction", func(c *Config) { c.Poison.Fraction = -0.3 }, true},
		{"NaN poison fraction", func(c *Config) { c.Poison.Fraction = math.NaN() }, true},
		{"negative poison start", func(c *Config) { c.Poison.StartRound = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewSimulationRejectsBadInput(t *testing.T) {
	if _, err := NewSimulation(&dataset.Federation{}, smallConfig()); err == nil {
		t.Error("empty federation should be rejected")
	}
	cfg := smallConfig()
	cfg.Rounds = 0
	if _, err := NewSimulation(smallFed(1), cfg); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestSimulationRunsAndGrowsDAG(t *testing.T) {
	sim, err := NewSimulation(smallFed(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	if len(results) != 12 {
		t.Fatalf("got %d rounds, want 12", len(results))
	}
	// The DAG must have grown beyond genesis: early rounds publish almost
	// always because genesis is a random model.
	if sim.DAG().Size() < 10 {
		t.Fatalf("DAG too small after 12 rounds: %d", sim.DAG().Size())
	}
	// Round bookkeeping.
	for _, rr := range results {
		if len(rr.Active) != 4 || len(rr.TrainedAcc) != 4 || len(rr.Published) != 4 {
			t.Fatalf("round %d shape wrong: %+v", rr.Round, rr)
		}
		for _, a := range rr.TrainedAcc {
			if a < 0 || a > 1 {
				t.Fatalf("accuracy out of range: %v", a)
			}
		}
	}
}

func TestAccuracyImprovesOverRounds(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 25
	sim, err := NewSimulation(smallFed(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	early := results[0].MeanTrainedAcc()
	lateSum := 0.0
	for _, rr := range results[len(results)-5:] {
		lateSum += rr.MeanTrainedAcc()
	}
	late := lateSum / 5
	if late < early {
		t.Fatalf("accuracy did not improve: %v -> %v", early, late)
	}
	if late < 0.6 {
		t.Fatalf("final accuracy too low: %v", late)
	}
}

func TestSpecializationEmerges(t *testing.T) {
	// The headline claim: with α=10, approval pureness must sit clearly
	// above the 1/3 random baseline on the clustered dataset.
	cfg := smallConfig()
	cfg.Rounds = 30
	cfg.ClientsPerRound = 6
	sim, err := NewSimulation(smallFed(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runAll(sim)
	pureness := metrics.ApprovalPureness(sim.DAG(), sim.ClusterOf())
	if pureness < 0.5 {
		t.Fatalf("approval pureness %v, want > 0.5 (base 0.33)", pureness)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []RoundResult {
		sim, err := NewSimulation(smallFed(4), smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runAll(sim)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].MeanTrainedAcc() != b[i].MeanTrainedAcc() {
			t.Fatalf("round %d diverged between identical runs", i)
		}
		for j := range a[i].Active {
			if a[i].Active[j] != b[i].Active[j] {
				t.Fatal("client sampling diverged")
			}
		}
	}
}

func TestPublishGate(t *testing.T) {
	// With the gate disabled every activation publishes.
	cfg := smallConfig()
	cfg.DisablePublishGate = true
	sim, err := NewSimulation(smallFed(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	want := 1 // genesis
	for _, rr := range results {
		for _, p := range rr.Published {
			if !p {
				t.Fatal("gate disabled but a publish was suppressed")
			}
			want++
		}
	}
	if sim.DAG().Size() != want {
		t.Fatalf("DAG size %d, want %d", sim.DAG().Size(), want)
	}
}

func TestReferenceWalksAveraging(t *testing.T) {
	cfg := smallConfig()
	cfg.ReferenceWalks = 3
	sim, err := NewSimulation(smallFed(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	if len(results) != cfg.Rounds {
		t.Fatal("run incomplete")
	}
}

func TestPoisoningActivation(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 8
	cfg.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4}
	sim, err := NewSimulation(smallFed(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sim.RunRound()
	}
	if n := len(sim.PoisonedClients()); n != 0 {
		t.Fatalf("poisoning active before start round: %d clients", n)
	}
	sim.RunRound()
	if n := len(sim.PoisonedClients()); n != 3 { // 25% of 12
		t.Fatalf("poisoned clients = %d, want 3", n)
	}
	rest := runAll(sim)
	// Tracking fields must be populated once poisoning is configured.
	last := rest[len(rest)-1]
	if len(last.FlippedFrac) != len(last.Active) {
		t.Fatal("FlippedFrac not tracked")
	}
	if len(last.RefPoisonedApprovals) != len(last.Active) {
		t.Fatal("RefPoisonedApprovals not tracked")
	}
}

func TestPoisonTrackingWithoutAttack(t *testing.T) {
	cfg := smallConfig()
	cfg.Poison = PoisonConfig{Track: true, FlipA: 3, FlipB: 8}
	sim, err := NewSimulation(smallFed(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	if len(sim.PoisonedClients()) != 0 {
		t.Fatal("no clients should be poisoned")
	}
	for _, rr := range results {
		if len(rr.FlippedFrac) != len(rr.Active) {
			t.Fatal("tracking should be on")
		}
	}
}

func TestRandomAttackersInjectPoisonedTxs(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 5
	cfg.Poison = PoisonConfig{RandomAttackers: 2, FlipA: 3, FlipB: 8}
	sim, err := NewSimulation(smallFed(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runAll(sim)
	poisonedTxs := 0
	for _, tx := range sim.DAG().All() {
		if tx.Meta.Poisoned {
			poisonedTxs++
		}
	}
	if poisonedTxs != 10 { // 2 per round x 5 rounds
		t.Fatalf("poisoned transactions = %d, want 10", poisonedTxs)
	}
}

func TestWalkStatsAccumulate(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 6
	sim, err := NewSimulation(smallFed(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	// After a few rounds the DAG has interior nodes, so walks must step and
	// evaluate.
	last := results[len(results)-1]
	if last.Walk.Steps == 0 || last.Walk.Evaluations == 0 {
		t.Fatalf("no walk work recorded: %+v", last.Walk)
	}
}

func TestURTSSelectorWorks(t *testing.T) {
	cfg := smallConfig()
	cfg.Selector = tipselect.URTS{}
	sim, err := NewSimulation(smallFed(12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	if len(results) != cfg.Rounds {
		t.Fatal("URTS run incomplete")
	}
}

func TestClientGraphBuildable(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 20
	sim, err := NewSimulation(smallFed(13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runAll(sim)
	g := metrics.BuildClientGraph(sim.DAG())
	if g.NumNodes() == 0 {
		t.Fatal("client graph empty")
	}
	part := graphx.Louvain(g, nil)
	if len(part) != g.NumNodes() {
		t.Fatal("partition incomplete")
	}
}

func TestSingleClientFederation(t *testing.T) {
	// Degenerate but must not crash: one client approves its own updates.
	fed := dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients: 1, TrainPerClient: 30, TestPerClient: 10, Seed: 14,
	})
	cfg := smallConfig()
	cfg.ClientsPerRound = 1
	cfg.Rounds = 5
	sim, err := NewSimulation(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	if len(results) != 5 {
		t.Fatal("single-client run incomplete")
	}
}

func TestSharedLayersValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.SharedLayers = 3 // arch has 2 dense layers
	if err := cfg.Validate(); err == nil {
		t.Error("SharedLayers beyond NumLayers should be rejected")
	}
	cfg.SharedLayers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SharedLayers should be rejected")
	}
	cfg.SharedLayers = 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("SharedLayers == NumLayers should be legal: %v", err)
	}
}

// TestPartialSharingPersonalizesHeads runs the paper's future-work
// extension: with only the first layer shared, each client keeps a personal
// output head. The run must complete and reach reasonable accuracy.
func TestPartialSharingPersonalizesHeads(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 20
	cfg.SharedLayers = 1
	sim, err := NewSimulation(smallFed(40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	last := results[len(results)-1]
	if last.MeanTrainedAcc() < 0.5 {
		t.Fatalf("partial sharing broke training: acc %v", last.MeanTrainedAcc())
	}
}

// Partial sharing must change behaviour relative to full sharing (the heads
// diverge), while SharedLayers == NumLayers must be identical to 0.
func TestPartialSharingSemantics(t *testing.T) {
	run := func(shared int) float64 {
		cfg := smallConfig()
		cfg.Rounds = 10
		cfg.SharedLayers = shared
		sim, err := NewSimulation(smallFed(41), cfg)
		if err != nil {
			t.Fatal(err)
		}
		results := runAll(sim)
		return results[len(results)-1].MeanTrainedAcc()
	}
	full := run(0)
	alsoFull := run(2) // == NumLayers: head slice is empty, so identical
	if full != alsoFull {
		t.Fatalf("SharedLayers=NumLayers should equal full sharing: %v vs %v", full, alsoFull)
	}
}

func TestRevealDelayValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.RevealDelay = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative RevealDelay should be rejected")
	}
}

// TestRevealDelayRuns verifies the non-ideal-broadcast mode: with a reveal
// delay, clients walk partial views of the tangle, yet training still
// progresses and specialization still emerges above the random baseline.
func TestRevealDelayRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 25
	cfg.RevealDelay = 2
	sim, err := NewSimulation(smallFed(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runAll(sim)
	last := results[len(results)-1]
	if last.MeanTrainedAcc() < 0.5 {
		t.Fatalf("delayed visibility broke training: acc %v", last.MeanTrainedAcc())
	}
	pureness := metrics.ApprovalPureness(sim.DAG(), sim.ClusterOf())
	if pureness <= 1.0/3 {
		t.Fatalf("pureness %v should stay above the random base under delay", pureness)
	}
}

// With delayed reveal, a client may approve transactions that are stale
// globally but tips within its view; all published transactions must still
// reference existing parents (no dangling approvals).
func TestRevealDelayKeepsDAGConsistent(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 15
	cfg.RevealDelay = 3
	sim, err := NewSimulation(smallFed(51), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runAll(sim)
	for _, tx := range sim.DAG().All() {
		for _, p := range tx.Parents {
			if p >= tx.ID {
				t.Fatal("acyclicity violated under reveal delay")
			}
		}
	}
}

func TestRevealDelayZeroMatchesDefault(t *testing.T) {
	run := func(delay int) float64 {
		cfg := smallConfig()
		cfg.Rounds = 8
		cfg.RevealDelay = delay
		sim, err := NewSimulation(smallFed(52), cfg)
		if err != nil {
			t.Fatal(err)
		}
		results := runAll(sim)
		return results[len(results)-1].MeanTrainedAcc()
	}
	if run(0) != run(0) {
		t.Fatal("baseline must be deterministic")
	}
}

func TestMemoDisabledMatchesEnabled(t *testing.T) {
	// Memoization must not change behaviour, only cost.
	run := func(disable bool) float64 {
		cfg := smallConfig()
		cfg.Rounds = 8
		if disable {
			cfg.EvalScope = EvalScopeNone
		}
		sim, err := NewSimulation(smallFed(15), cfg)
		if err != nil {
			t.Fatal(err)
		}
		results := runAll(sim)
		return results[len(results)-1].MeanTrainedAcc()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("memoization changed results: %v vs %v", a, b)
	}
}

func BenchmarkSimulationRound(b *testing.B) {
	fed := smallFed(16)
	cfg := smallConfig()
	cfg.Rounds = b.N + 1
	sim, err := NewSimulation(fed, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunRound()
	}
}

// TestClientsPerRoundOversubscription: sampling more clients per round than
// the federation holds is a configuration error with an actionable message,
// not a silent permutation-sized round.
func TestClientsPerRoundOversubscription(t *testing.T) {
	cfg := smallConfig()
	cfg.ClientsPerRound = 13 // federation has 12
	_, err := NewSimulation(smallFed(17), cfg)
	if err == nil {
		t.Fatal("oversubscribed ClientsPerRound accepted")
	}
	if !strings.Contains(err.Error(), "12 clients") || !strings.Contains(err.Error(), "ClientsPerRound 13") {
		t.Fatalf("unhelpful error: %v", err)
	}
	cfg.ClientsPerRound = 12 // exactly the federation size stays legal
	if _, err := NewSimulation(smallFed(17), cfg); err != nil {
		t.Fatalf("full-federation rounds rejected: %v", err)
	}
}
