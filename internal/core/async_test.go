package core

import (
	"math"
	"testing"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

func asyncConfig() AsyncConfig {
	return AsyncConfig{
		Duration:     60,
		MinCycle:     1,
		MaxCycle:     8,
		NetworkDelay: 0.5,
		Local:        nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:         nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Selector:     tipselect.AccuracyWalk{Alpha: 10},
		Seed:         1,
	}
}

func TestAsyncConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*AsyncConfig)
		wantErr bool
	}{
		{"valid", func(c *AsyncConfig) {}, false},
		{"zero duration", func(c *AsyncConfig) { c.Duration = 0 }, true},
		{"zero min cycle", func(c *AsyncConfig) { c.MinCycle = 0 }, true},
		{"max < min", func(c *AsyncConfig) { c.MaxCycle = c.MinCycle / 2 }, true},
		{"negative delay", func(c *AsyncConfig) { c.NetworkDelay = -1 }, true},
		{"NaN duration", func(c *AsyncConfig) { c.Duration = math.NaN() }, true},
		{"NaN min cycle", func(c *AsyncConfig) { c.MinCycle = math.NaN() }, true},
		{"NaN max cycle", func(c *AsyncConfig) { c.MaxCycle = math.NaN() }, true},
		{"NaN delay", func(c *AsyncConfig) { c.NetworkDelay = math.NaN() }, true},
		{"infinite duration", func(c *AsyncConfig) { c.Duration = math.Inf(1) }, true},
		{"infinite min and max cycle", func(c *AsyncConfig) { c.MinCycle, c.MaxCycle = math.Inf(1), math.Inf(1) }, true},
		{"infinite max cycle", func(c *AsyncConfig) { c.MaxCycle = math.Inf(1) }, true},
		{"infinite delay", func(c *AsyncConfig) { c.NetworkDelay = math.Inf(1) }, true},
		{"bad arch", func(c *AsyncConfig) { c.Arch.In = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := asyncConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAsyncRunBasics(t *testing.T) {
	fed := smallFed(30)
	res, err := runAsync(fed, asyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != len(fed.Clients) {
		t.Fatalf("client stats %d, want %d", len(res.Clients), len(fed.Clients))
	}
	if res.Transactions < 10 {
		t.Fatalf("DAG barely grew: %d transactions", res.Transactions)
	}
	for _, c := range res.Clients {
		if c.Cycles == 0 {
			t.Fatalf("client %d never ran", c.ID)
		}
		if c.Published > c.Cycles {
			t.Fatalf("client %d published %d > cycles %d", c.ID, c.Published, c.Cycles)
		}
	}
}

// TestAsyncNoStragglers verifies the §5.3.3 claim: slow clients do not slow
// down fast ones. A client's completed cycle count must be governed by its
// own cycle time, independent of others.
func TestAsyncNoStragglers(t *testing.T) {
	fed := smallFed(31)
	cfg := asyncConfig()
	cfg.Duration = 80
	res, err := runAsync(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		expected := cfg.Duration / c.CycleTime
		// Completed cycles must be within one of the expectation — any
		// systematic shortfall would mean cross-client blocking.
		if math.Abs(float64(c.Cycles)-expected) > 2 {
			t.Fatalf("client %d: %d cycles, expected ≈%.1f (cycle time %.2fs) — stragglers are blocking",
				c.ID, c.Cycles, expected, c.CycleTime)
		}
	}
}

func TestAsyncFastClientsDoMoreWork(t *testing.T) {
	fed := smallFed(32)
	res, err := runAsync(fed, asyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	fastest, slowest := res.Clients[0], res.Clients[0]
	for _, c := range res.Clients {
		if c.CycleTime < fastest.CycleTime {
			fastest = c
		}
		if c.CycleTime > slowest.CycleTime {
			slowest = c
		}
	}
	if fastest.Cycles <= slowest.Cycles {
		t.Fatalf("fastest client (%.2fs) did %d cycles, slowest (%.2fs) did %d — asynchrony broken",
			fastest.CycleTime, fastest.Cycles, slowest.CycleTime, slowest.Cycles)
	}
}

func TestAsyncLearns(t *testing.T) {
	fed := smallFed(33)
	cfg := asyncConfig()
	cfg.Duration = 120
	res, err := runAsync(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, c := range res.Clients {
		sum += c.FinalAcc
		n++
	}
	if mean := sum / float64(n); mean < 0.6 {
		t.Fatalf("async training failed to learn: mean final acc %.3f", mean)
	}
}

func TestAsyncDeterminism(t *testing.T) {
	run := func() *AsyncResult {
		res, err := runAsync(smallFed(34), asyncConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transactions != b.Transactions {
		t.Fatal("async runs with identical seeds diverged in DAG size")
	}
	for i := range a.Clients {
		if a.Clients[i].Cycles != b.Clients[i].Cycles || a.Clients[i].FinalAcc != b.Clients[i].FinalAcc {
			t.Fatal("async runs with identical seeds diverged in client stats")
		}
	}
}

// TestAsyncPublishesTrainedModel is the regression test for a seed bug: the
// sequential event loop evaluated the consensus reference on the client's
// scratch model last, so the publish step copied the *reference* params
// while stamping them with the *trained* model's accuracy. Published params
// must reproduce the accuracy recorded in their own Meta when evaluated on
// the issuer's test split.
func TestAsyncPublishesTrainedModel(t *testing.T) {
	fedSeed := int64(36)
	cfg := asyncConfig()
	res, err := runAsync(smallFed(fedSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate the identical federation to recover per-client test splits.
	fed := smallFed(fedSeed)
	testX := make(map[int]mathx.Matrix)
	testY := make(map[int][]int)
	for _, fc := range fed.Clients {
		testX[fc.ID], testY[fc.ID] = fc.Test.X, fc.Test.Y
	}
	model := nn.New(cfg.Arch, xrand.New(99))
	checked := 0
	for _, tx := range res.DAG.All() {
		if tx.IsGenesis() {
			continue
		}
		model.SetParams(tx.Params)
		_, acc := model.Evaluate(testX[tx.Issuer], testY[tx.Issuer])
		if acc != tx.Meta.TestAcc {
			t.Fatalf("tx %d by client %d: params score %v but Meta.TestAcc is %v — published the wrong model",
				tx.ID, tx.Issuer, acc, tx.Meta.TestAcc)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no published transactions to check")
	}
}

func TestAsyncRejectsBadInput(t *testing.T) {
	if _, err := runAsync(&dataset.Federation{}, asyncConfig()); err == nil {
		t.Error("empty federation should be rejected")
	}
	cfg := asyncConfig()
	cfg.Duration = -1
	if _, err := runAsync(smallFed(35), cfg); err == nil {
		t.Error("bad config should be rejected")
	}
}

// TestAsyncReferenceWalksMatter is the regression test for a seed bug: the
// async engine ignored ReferenceWalks > 1 and always took exactly one
// reference walk, so 1 and 3 walks produced identical runs. Both engines
// now share one consensusReference helper; with >1 walks the reference is
// the average of several walked models, which must change publish decisions
// somewhere over a run.
func TestAsyncReferenceWalksMatter(t *testing.T) {
	run := func(walks int) *AsyncResult {
		cfg := asyncConfig()
		cfg.ReferenceWalks = walks
		res, err := runAsync(smallFed(37), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, three := run(1), run(3)
	same := one.Transactions == three.Transactions
	for i := range one.Clients {
		if one.Clients[i] != three.Clients[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("ReferenceWalks=3 produced a run identical to ReferenceWalks=1 — the setting is still ignored")
	}
}

func TestAsyncValidatesReferenceWalks(t *testing.T) {
	cfg := asyncConfig()
	cfg.ReferenceWalks = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ReferenceWalks should be rejected")
	}
}
