package fl

import (
	"testing"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/nn"
)

func gossipConfig() GossipConfig {
	return GossipConfig{
		Rounds:          15,
		ClientsPerRound: 4,
		Local:           nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            nn.Arch{In: 64, Hidden: []int{32}, Out: 10},
		Seed:            7,
	}
}

func TestGossipConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*GossipConfig)
		wantErr bool
	}{
		{"valid", func(c *GossipConfig) {}, false},
		{"no rounds", func(c *GossipConfig) { c.Rounds = 0 }, true},
		{"no clients", func(c *GossipConfig) { c.ClientsPerRound = 0 }, true},
		{"bad arch", func(c *GossipConfig) { c.Arch.Out = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := gossipConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGossipRejectsBadInput(t *testing.T) {
	if _, err := runGossip(&dataset.Federation{}, gossipConfig()); err == nil {
		t.Error("empty federation rejected")
	}
	single := dataset.FMNISTClustered(dataset.FMNISTConfig{
		Clients: 1, TrainPerClient: 20, TestPerClient: 10, Seed: 1,
	})
	if _, err := runGossip(single, gossipConfig()); err == nil {
		t.Error("gossip with a single client should be rejected (no peers)")
	}
}

func TestGossipLearns(t *testing.T) {
	res, err := runGossip(smallFed(1), gossipConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "gossip" {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
	accs := res.MeanAccs()
	if accs[len(accs)-1] < accs[0] {
		t.Fatalf("gossip did not learn: %v -> %v", accs[0], accs[len(accs)-1])
	}
	if accs[len(accs)-1] < 0.4 {
		t.Fatalf("gossip final accuracy too low: %v", accs[len(accs)-1])
	}
}

func TestGossipDeterminism(t *testing.T) {
	a, err := runGossip(smallFed(2), gossipConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runGossip(smallFed(2), gossipConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		if a.Rounds[i].MeanAcc != b.Rounds[i].MeanAcc {
			t.Fatal("gossip runs with identical seeds diverged")
		}
	}
}

func TestGossipRoundShape(t *testing.T) {
	res, err := runGossip(smallFed(3), gossipConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 15 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for _, rr := range res.Rounds {
		if len(rr.Accs) != 4 || len(rr.Selected) != 4 {
			t.Fatalf("round %d arity wrong", rr.Round)
		}
		// A client never gossips with itself; peer choice is internal, but
		// accuracies must stay in range.
		for _, a := range rr.Accs {
			if a < 0 || a > 1 {
				t.Fatalf("accuracy out of range: %v", a)
			}
		}
	}
}
