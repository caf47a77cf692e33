package fl

import (
	"context"
	"fmt"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/xrand"
)

// GossipConfig parameterizes the gossip-learning baseline (paper §3.2,
// after Ormándi/Hegedűs et al.): there is no server and no ledger — each
// client keeps a local model, periodically receives the model of a random
// peer, merges it with its own by parameter averaging, and trains the merge
// on local data.
//
// Gossip learning is the closest decentralized alternative to the
// Specializing DAG; the difference is that the merge partner is *random*
// rather than selected by model performance on local data, so on clustered
// non-IID data gossip keeps averaging across cluster boundaries.
type GossipConfig struct {
	// Rounds and ClientsPerRound mirror the DAG simulation so curves are
	// comparable: each round, ClientsPerRound clients perform one
	// receive-merge-train cycle.
	Rounds          int
	ClientsPerRound int
	// Local configures client-side SGD.
	Local nn.SGDConfig
	// Arch is the shared model architecture.
	Arch nn.Arch
	// Seed drives sampling and initialization.
	Seed int64
}

// Validate reports configuration errors.
func (c GossipConfig) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: gossip Rounds must be positive, got %d", c.Rounds)
	}
	if c.ClientsPerRound <= 0 {
		return fmt.Errorf("fl: gossip ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	}
	return c.Arch.Validate()
}

// Gossip is a running gossip-learning experiment: the serverless baseline as
// a stepper for the unified run API. Within a round the receive-merge-train
// cycles run sequentially — a later client may receive a model its peer
// updated earlier in the same round, which is inherent to the protocol's
// semantics, so this engine has no per-round fan-out.
type Gossip struct {
	cfg     GossipConfig
	fed     *dataset.Federation
	root    *xrand.RNG
	sampler *xrand.RNG
	models  [][]float64
	scratch *nn.MLP
	// Per-client train/test data: zero-copy views of the federation's flat
	// storage (this engine never mutates features or labels) instead of
	// re-materialized per-sample slice headers.
	trainX []mathx.Matrix
	trainY [][]int
	testX  []mathx.Matrix
	testY  [][]int
	res    *Result
	round  int
}

var _ engine.Engine = (*Gossip)(nil)

// NewGossip validates inputs and prepares a gossip-learning run. Every
// client starts from the same random initialization, as in the DAG's genesis
// model.
func NewGossip(fed *dataset.Federation, cfg GossipConfig) (*Gossip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fed.Validate(); err != nil {
		return nil, err
	}
	if len(fed.Clients) < 2 {
		return nil, fmt.Errorf("fl: gossip needs at least 2 clients, got %d", len(fed.Clients))
	}
	if cfg.ClientsPerRound > len(fed.Clients) {
		return nil, fmt.Errorf("fl: gossip ClientsPerRound %d exceeds the federation's %d clients — a round samples without replacement, so reduce ClientsPerRound or enlarge the federation",
			cfg.ClientsPerRound, len(fed.Clients))
	}
	root := xrand.New(cfg.Seed)
	init := nn.New(cfg.Arch, root.Split("init"))
	g := &Gossip{
		cfg:     cfg,
		fed:     fed,
		root:    root,
		sampler: root.Split("sampler"),
		scratch: init.Clone(),
		res:     &Result{Algorithm: "gossip"},
	}
	g.models = make([][]float64, len(fed.Clients))
	for i := range g.models {
		g.models[i] = init.ParamsCopy()
	}
	g.trainX = make([]mathx.Matrix, len(fed.Clients))
	g.trainY = make([][]int, len(fed.Clients))
	g.testX = make([]mathx.Matrix, len(fed.Clients))
	g.testY = make([][]int, len(fed.Clients))
	for i, c := range fed.Clients {
		g.trainX[i], g.trainY[i] = c.Train.X, c.Train.Y
		g.testX[i], g.testY[i] = c.Test.X, c.Test.Y
	}
	return g, nil
}

// Name implements engine.Engine.
func (g *Gossip) Name() string { return "gossip" }

// Round returns the number of rounds executed so far.
func (g *Gossip) Round() int { return g.round }

// Result returns the run so far, shaped like Federated's: the per-client
// accuracies are those of each active client's *own* local model on its own
// test split. Valid mid-run as well as after completion.
func (g *Gossip) Result() *Result {
	g.scratch.SetParams(g.models[0])
	g.res.Final = g.scratch
	return g.res
}

// Step implements engine.Engine: one gossip round of receive-merge-train
// cycles.
func (g *Gossip) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	if g.round >= g.cfg.Rounds {
		return nil, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	round := g.round
	idxs := g.sampler.SampleWithoutReplacement(len(g.fed.Clients), g.cfg.ClientsPerRound)
	rr := RoundResult{Round: round}
	for _, ci := range idxs {
		crng := g.root.SplitIndex("gossip", round*100003+ci)
		// Receive a random peer's current model and merge by averaging.
		peer := ci
		for peer == ci {
			peer = crng.Intn(len(g.fed.Clients))
		}
		merged := nn.AverageParams(g.models[ci], g.models[peer])
		g.scratch.SetParams(merged)
		localCfg := g.cfg.Local
		localCfg.Shuffle = true
		g.scratch.Train(g.trainX[ci], g.trainY[ci], localCfg, crng.Split("train"))
		g.models[ci] = g.scratch.ParamsCopy()

		loss, acc := g.scratch.Evaluate(g.testX[ci], g.testY[ci])
		rr.Selected = append(rr.Selected, g.fed.Clients[ci].ID)
		rr.Accs = append(rr.Accs, acc)
		rr.Losses = append(rr.Losses, loss)
		rr.MeanAcc += acc
		rr.MeanLoss += loss
	}
	n := float64(len(idxs))
	rr.MeanAcc /= n
	rr.MeanLoss /= n
	g.res.Rounds = append(g.res.Rounds, rr)
	g.round++

	return &engine.StepResult{Round: engine.RoundEvent{
		Engine:   g.Name(),
		Round:    round,
		MeanAcc:  rr.MeanAcc,
		MeanLoss: rr.MeanLoss,
		Detail:   &g.res.Rounds[len(g.res.Rounds)-1],
	}}, false, nil
}
