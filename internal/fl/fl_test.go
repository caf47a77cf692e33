package fl

import (
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/nn"
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
		Rounds:          15,
		ClientsPerRound: 4,
		Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Seed:            7,
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
		{"bad arch", func(c *Config) { c.Arch.In = 0 }, true},
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

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := runFed(&dataset.Federation{}, smallConfig()); err == nil {
		t.Error("empty federation should be rejected")
	}
	cfg := smallConfig()
	cfg.Rounds = 0
	if _, err := runFed(smallFed(1), cfg); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestFedAvgLearns(t *testing.T) {
	res, err := runFed(smallFed(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "fedavg" {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
	if len(res.Rounds) != 15 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	accs := res.MeanAccs()
	first, last := accs[0], accs[len(accs)-1]
	if last < first+0.1 {
		t.Fatalf("FedAvg did not learn: acc %v -> %v", first, last)
	}
	if last < 0.4 {
		t.Fatalf("FedAvg final accuracy too low: %v", last)
	}
}

func TestFedProxLabelAndConvergence(t *testing.T) {
	cfg := smallConfig()
	cfg.ProxMu = 0.1
	res, err := runFed(smallFed(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Algorithm, "fedprox") {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
	accs := res.MeanAccs()
	if accs[len(accs)-1] < 0.35 {
		t.Fatalf("FedProx failed to learn: %v", accs[len(accs)-1])
	}
}

func TestRoundResultShape(t *testing.T) {
	res, err := runFed(smallFed(3), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Rounds {
		if len(rr.Selected) != 4 || len(rr.Accs) != 4 || len(rr.Losses) != 4 {
			t.Fatalf("round %d has wrong arity: %+v", rr.Round, rr)
		}
		for _, a := range rr.Accs {
			if a < 0 || a > 1 {
				t.Fatalf("accuracy out of range: %v", a)
			}
		}
		for _, l := range rr.Losses {
			if l < 0 {
				t.Fatalf("negative loss: %v", l)
			}
		}
	}
	if res.Final == nil {
		t.Fatal("missing final model")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := runFed(smallFed(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFed(smallFed(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		if a.Rounds[i].MeanAcc != b.Rounds[i].MeanAcc {
			t.Fatal("runs with identical seeds diverged")
		}
	}
}

func TestMeanCurvesLengths(t *testing.T) {
	res, err := runFed(smallFed(5), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanAccs()) != 15 || len(res.MeanLosses()) != 15 {
		t.Fatal("curve lengths wrong")
	}
}

func TestFedProxStaysCloserToGlobal(t *testing.T) {
	// On strongly non-IID data, FedProx should not do worse than FedAvg on
	// the FedProx synthetic set (directional check of §5.3.3).
	fed := dataset.FedProxSynthetic(dataset.FedProxConfig{Clients: 12, MaxSamples: 200, Seed: 6})
	base := Config{
		Rounds:          20,
		ClientsPerRound: 5,
		Local:           nn.SGDConfig{LR: 0.03, Epochs: 2, BatchSize: 10},
		Arch:            nn.Arch{In: 60, Out: 10},
		Seed:            8,
	}
	avg, err := runFed(fed, base)
	if err != nil {
		t.Fatal(err)
	}
	proxCfg := base
	proxCfg.ProxMu = 0.5
	prox, err := runFed(fed, proxCfg)
	if err != nil {
		t.Fatal(err)
	}
	avgLoss := avg.MeanLosses()
	proxLoss := prox.MeanLosses()
	// Compare the tail means to tolerate per-round noise.
	tail := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs[len(xs)-5:] {
			s += v
		}
		return s / 5
	}
	if tail(proxLoss) > tail(avgLoss)*1.5 {
		t.Fatalf("FedProx much worse than FedAvg: %v vs %v", tail(proxLoss), tail(avgLoss))
	}
}

func BenchmarkFedAvgRound(b *testing.B) {
	fed := smallFed(9)
	cfg := smallConfig()
	cfg.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runFed(fed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFLOversubscriptionRejected mirrors core's check: sampling more
// clients than the federation holds fails at construction with an
// actionable message for both baselines.
func TestFLOversubscriptionRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.ClientsPerRound = 13 // federation has 12
	if _, err := NewFederated(smallFed(10), cfg); err == nil || !strings.Contains(err.Error(), "12 clients") {
		t.Fatalf("federated oversubscription not rejected: %v", err)
	}
	gcfg := GossipConfig{Rounds: 5, ClientsPerRound: 13, Local: cfg.Local, Arch: cfg.Arch, Seed: 1}
	if _, err := NewGossip(smallFed(10), gcfg); err == nil || !strings.Contains(err.Error(), "12 clients") {
		t.Fatalf("gossip oversubscription not rejected: %v", err)
	}
}

// TestFedAvgWorkerInvariance: the new per-client training fan-out must be
// bit-identical for any worker count (each client trains a private clone
// with a pure split RNG stream; aggregation happens in sampling order).
func TestFedAvgWorkerInvariance(t *testing.T) {
	run := func(workers int) *Result {
		cfg := smallConfig()
		cfg.Workers = workers
		cfg.ProxMu = 0.1 // exercise the proximal path too
		res, err := runFed(smallFed(11), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for i := range a.Rounds {
		x, y := a.Rounds[i], b.Rounds[i]
		if x.MeanAcc != y.MeanAcc || x.MeanLoss != y.MeanLoss {
			t.Fatalf("round %d diverged across worker counts", i)
		}
		for j := range x.Accs {
			if x.Accs[j] != y.Accs[j] || x.Losses[j] != y.Losses[j] || x.Selected[j] != y.Selected[j] {
				t.Fatalf("round %d client %d diverged across worker counts", i, j)
			}
		}
	}
	fa, fb := a.Final.ParamsCopy(), b.Final.ParamsCopy()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("final global models diverged across worker counts")
		}
	}
}

func TestFLWorkersValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers should be rejected")
	}
}
