// Package fl implements the centralized federated-learning baselines the
// paper compares against (§5.3.2, §5.3.3): Federated Averaging (FedAvg,
// McMahan et al.) and FedProx (Li et al.), which adds a proximal term to the
// local objective to stabilize convergence on heterogeneous (non-IID) data —
// plus gossip learning, the serverless decentralized baseline (§3.2).
//
// FedAvg/FedProx run the classic client-server loop: each round the server
// samples a subset of clients, ships them the global model, the clients
// train locally and return updated parameters, and the server aggregates
// them weighted by local sample counts.
//
// Both baselines are exposed as steppers (Federated, Gossip) implementing
// the unified run API, so one specdag.Run call drives them with the same
// cancellation, observation and worker-budget machinery as the DAG engines.
package fl

import (
	"context"
	"fmt"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/xrand"
)

// Config parameterizes a FedAvg/FedProx run.
type Config struct {
	// Rounds is the number of communication rounds (Table 1: 100).
	Rounds int
	// ClientsPerRound is the number of clients sampled per round
	// (Table 1: 10).
	ClientsPerRound int
	// Local configures the client-side SGD (learning rate, epochs, batch
	// size, max batches — Table 1).
	Local nn.SGDConfig
	// ProxMu, when positive, turns the run into FedProx with the given
	// proximal coefficient; 0 gives plain FedAvg.
	ProxMu float64
	// Arch is the model architecture shared by server and clients.
	Arch nn.Arch
	// Workers bounds the goroutines that train the round's sampled clients
	// concurrently. 0 (the default) uses runtime.NumCPU(). Results are
	// bit-identical for every worker count: each client trains a private
	// clone of the global model with its own split RNG stream, and updates
	// are aggregated in sampling order.
	Workers int
	// Pool, when set, is the shared worker budget the per-client fan-out
	// draws from (see core.Config.Pool).
	Pool *par.Budget
	// Seed drives client sampling, initialization and batch shuffling.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: Rounds must be positive, got %d", c.Rounds)
	}
	if c.ClientsPerRound <= 0 {
		return fmt.Errorf("fl: ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	}
	if c.Workers < 0 {
		return fmt.Errorf("fl: Workers must be >= 0, got %d", c.Workers)
	}
	if err := c.Arch.Validate(); err != nil {
		return err
	}
	return nil
}

// RoundResult captures the evaluation of one communication round: the
// aggregated global model scored on the local test data of every client
// selected in that round (the quantity plotted in Figs. 9-11).
type RoundResult struct {
	Round    int
	Selected []int // client IDs sampled this round
	// Accs and Losses are per-selected-client results of the *new* global
	// model on that client's local test split.
	Accs   []float64
	Losses []float64
	// MeanAcc and MeanLoss are their means.
	MeanAcc  float64
	MeanLoss float64
}

// Result is a full run: per-round results plus the final global model.
type Result struct {
	Algorithm string
	Rounds    []RoundResult
	Final     *nn.MLP
}

// Federated is a running FedAvg/FedProx experiment: the centralized
// counterpart of core.Simulation, advanced one communication round at a
// time through the unified run API.
type Federated struct {
	cfg     Config
	fed     *dataset.Federation
	root    *xrand.RNG
	sampler *xrand.RNG
	global  *nn.MLP
	// Per-client train/test data: zero-copy views of the federation's flat
	// storage (this engine never mutates features or labels).
	trainX []mathx.Matrix
	trainY [][]int
	testX  []mathx.Matrix
	testY  [][]int
	res    *Result
	round  int
}

var _ engine.Engine = (*Federated)(nil)

// NewFederated validates inputs and prepares a FedAvg/FedProx run.
func NewFederated(fed *dataset.Federation, cfg Config) (*Federated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fed.Validate(); err != nil {
		return nil, err
	}
	if cfg.ClientsPerRound > len(fed.Clients) {
		return nil, fmt.Errorf("fl: ClientsPerRound %d exceeds the federation's %d clients — a round samples without replacement, so reduce ClientsPerRound or enlarge the federation",
			cfg.ClientsPerRound, len(fed.Clients))
	}
	root := xrand.New(cfg.Seed)
	algo := "fedavg"
	if cfg.ProxMu > 0 {
		algo = fmt.Sprintf("fedprox(mu=%g)", cfg.ProxMu)
	}
	f := &Federated{
		cfg:     cfg,
		fed:     fed,
		root:    root,
		sampler: root.Split("sampler"),
		global:  nn.New(cfg.Arch, root.Split("init")),
		res:     &Result{Algorithm: algo},
	}
	// Wire up the flat per-client views once; nothing is copied.
	f.trainX = make([]mathx.Matrix, len(fed.Clients))
	f.trainY = make([][]int, len(fed.Clients))
	f.testX = make([]mathx.Matrix, len(fed.Clients))
	f.testY = make([][]int, len(fed.Clients))
	for i, c := range fed.Clients {
		f.trainX[i], f.trainY[i] = c.Train.X, c.Train.Y
		f.testX[i], f.testY[i] = c.Test.X, c.Test.Y
	}
	return f, nil
}

// Name implements engine.Engine ("fedavg" or "fedprox(mu=…)").
func (f *Federated) Name() string { return f.res.Algorithm }

// Round returns the number of rounds executed so far.
func (f *Federated) Round() int { return f.round }

// Result returns the run so far: per-round results plus the current global
// model. It is valid mid-run (partial results after a canceled run) as well
// as after completion.
func (f *Federated) Result() *Result {
	f.res.Final = f.global
	return f.res
}

// Step implements engine.Engine: one communication round — sample, local
// training (fanned over Workers, bit-identical for any count), weighted
// aggregation, evaluation of the new global model on the selected clients.
func (f *Federated) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	if f.round >= f.cfg.Rounds {
		return nil, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	round := f.round
	idxs := f.sampler.SampleWithoutReplacement(len(f.fed.Clients), f.cfg.ClientsPerRound)

	// Local training: every sampled client trains a private clone of the
	// global model with its own pure split RNG stream; updates land in
	// sampling order, so the aggregation below matches the sequential loop.
	updates := make([][]float64, len(idxs))
	weights := make([]float64, len(idxs))
	globalParams := f.global.ParamsCopy()
	par.ForEachIn(f.cfg.Pool, f.cfg.Workers, len(idxs), func(k int) {
		ci := idxs[k]
		local := f.global.Clone()
		localCfg := f.cfg.Local
		localCfg.Shuffle = true
		if f.cfg.ProxMu > 0 {
			localCfg.ProxMu = f.cfg.ProxMu
			localCfg.ProxCenter = globalParams
		}
		local.Train(f.trainX[ci], f.trainY[ci], localCfg, f.root.SplitIndex("train", round*1000+ci))
		updates[k] = local.ParamsCopy()
		weights[k] = float64(len(f.trainY[ci]))
	})
	f.global.SetParams(nn.WeightedAverageParams(updates, weights))

	// Evaluate the new global model on every selected client's test split:
	// a plain loop on the one model (ten small test splits are noise beside
	// training ten clients, so this does not fan out).
	rr := RoundResult{Round: round}
	for _, ci := range idxs {
		loss, acc := f.global.Evaluate(f.testX[ci], f.testY[ci])
		rr.Selected = append(rr.Selected, f.fed.Clients[ci].ID)
		rr.Accs = append(rr.Accs, acc)
		rr.Losses = append(rr.Losses, loss)
		rr.MeanAcc += acc
		rr.MeanLoss += loss
	}
	n := float64(len(idxs))
	rr.MeanAcc /= n
	rr.MeanLoss /= n
	f.res.Rounds = append(f.res.Rounds, rr)
	f.round++

	return &engine.StepResult{Round: engine.RoundEvent{
		Engine:   f.Name(),
		Round:    round,
		MeanAcc:  rr.MeanAcc,
		MeanLoss: rr.MeanLoss,
		Detail:   &f.res.Rounds[len(f.res.Rounds)-1],
	}}, false, nil
}

// MeanAccs returns the per-round mean accuracy curve.
func (r *Result) MeanAccs() []float64 {
	out := make([]float64, len(r.Rounds))
	for i, rr := range r.Rounds {
		out[i] = rr.MeanAcc
	}
	return out
}

// MeanLosses returns the per-round mean loss curve.
func (r *Result) MeanLosses() []float64 {
	out := make([]float64, len(r.Rounds))
	for i, rr := range r.Rounds {
		out[i] = rr.MeanLoss
	}
	return out
}
