// Package specdag is the public API of the Specializing DAG library — a
// reproduction of "Implicit Model Specialization through DAG-based
// Decentralized Federated Learning" (Beilharz, Pfitzner, Schmid et al.,
// Middleware '21).
//
// The library provides:
//
//   - a tangle-style DAG of model updates with accuracy-aware tip selection
//     (the paper's contribution, [NewSimulation]);
//   - the event-driven, round-free variant a real deployment would run
//     ([NewAsyncSimulation]);
//   - the centralized FedAvg/FedProx baselines ([NewFederated]) and the
//     gossip-learning baseline ([NewGossip]);
//   - one unified run API behind all of them ([Run]): every engine is
//     cancelable via context, observable mid-flight through typed progress
//     events ([Hooks], [WithProbe]), and — for both DAG simulations —
//     checkpointable and resumable bit-identically ([WithCheckpoints],
//     [ResumeSimulation], [ResumeAsyncSimulation]);
//   - a shared worker budget ([WorkerPool]) so nested fan-outs (sweeps of
//     engines, each fanning over clients) never oversubscribe the machine;
//   - synthetic federated datasets with cluster-structured non-IID data
//     ([FMNISTClustered], [Poets], [CIFAR100PAM], [FedProxSynthetic]);
//   - the specialization metrics of the paper's evaluation
//     ([ApprovalPureness], [BuildClientGraph], [Louvain], [Modularity],
//     [Misclassification]).
//
// # Quickstart
//
//	fed := specdag.FMNISTClustered(specdag.FMNISTConfig{Clients: 30, Seed: 1})
//	sim, err := specdag.NewSimulation(fed, specdag.Config{
//		Rounds:          50,
//		ClientsPerRound: 10,
//		Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
//		Arch:            specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
//		Selector:        specdag.AccuracyWalk{Alpha: 10},
//	})
//	if err != nil { ... }
//
//	// Drive the engine under a context: cancelable at round granularity,
//	// observable through typed events, probe-able mid-run.
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	_, err = specdag.Run(ctx, sim,
//		specdag.WithHooks(specdag.Hooks{
//			OnRound: func(ev specdag.RoundEvent) {
//				fmt.Printf("round %d: acc %.3f, DAG %d\n", ev.Round, ev.MeanAcc, ev.DAGSize)
//			},
//		}),
//		specdag.WithProbe("pureness", 10, func() float64 {
//			return specdag.ApprovalPureness(sim.DAG(), fed.ClusterOf())
//		}),
//	)
//	results := sim.Results() // complete, or partial after cancellation
//
// Long runs checkpoint and resume bit-identically:
//
//	var buf bytes.Buffer
//	sim.WriteCheckpoint(&buf)                            // after a canceled run
//	sim2, _ := specdag.ResumeSimulation(fed, cfg, &buf)  // same fed + cfg
//	specdag.Run(ctx, sim2)                               // history/DAG identical
//	                                                     // to an uninterrupted run
//
// The event-driven engine checkpoints the same way, at event granularity —
// a crash between any two client activations is recoverable with zero
// drift (the event queue, in-flight transactions and per-client statistics
// all ride in the snapshot):
//
//	async, _ := specdag.NewAsyncSimulation(fed, acfg)
//	specdag.Run(ctx, async, specdag.WithCheckpoints(25, openCheckpointFile))
//	// …process dies; later, with the same fed + acfg:
//	resumed, _ := specdag.ResumeAsyncSimulation(fed, acfg, checkpointFile)
//	specdag.Run(ctx, resumed)  // event stream, stats and DAG identical
//
// The same [Run] call drives every other engine ([NewAsyncSimulation],
// [NewFederated], [NewGossip]); it is the only way to run one.
//
// # Serving
//
// [NewServer] hosts many concurrent runs on one shared worker budget and
// serves their lifecycle and live event streams over HTTP; cmd/specdagd
// wraps it in a standalone daemon. Runs are submitted as a [RunRequest]
// (POST /runs), paused to a checkpoint, resumed bit-identically, canceled,
// and streamed (GET /runs/{id}/events?from=N). [Subscribe] is the client
// side: it replays a remote stream into ordinary [Hooks], reconnecting and
// resuming from the last delivered index, so a remote observer sees exactly
// the events a local one would — field for field:
//
//	srv := specdag.NewServer(specdag.ServeConfig{})
//	go http.ListenAndServe("127.0.0.1:9477", srv.Handler())
//	// …any number of processes, anywhere:
//	end, err := specdag.Subscribe(ctx, "http://127.0.0.1:9477", 1,
//		specdag.SubscribeOptions{Hooks: specdag.Hooks{
//			OnRound: func(ev specdag.RoundEvent) { fmt.Println(ev.Round, ev.MeanAcc) },
//		}})
//
// Streams travel in SDE1, a versioned frame codec ([EventFrame]): a Start
// frame identifying the run, one frame per engine event, then lifecycle
// frames (Checkpoint, Gap, End). The format is append-only and
// gob-compatible additions keep the SDE1 magic; a breaking change bumps it.
// cmd/specdag -events records a local run in the same format, and
// cmd/dagstat inspects saved streams.
//
// A slow subscriber never stalls an engine. Each run's events fan out
// through a bounded ring ([Broadcaster]): appends are O(1) and never block,
// and a subscriber that falls more than a ring behind is told exactly which
// index range it missed. It then chooses drop semantics (continue from the
// oldest retained frame) or snapshot semantics (fetch the run's checkpoint
// and resume the stream from the checkpoint's index). examples/liveview
// demonstrates both.
//
// See examples/ for complete programs and cmd/experiments for the harness
// that regenerates every table and figure of the paper.
package specdag

import (
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// ---- Specializing DAG simulation (internal/core) ----

// Config parameterizes a Specializing DAG simulation. See core.Config.
type Config = core.Config

// PoisonConfig describes the flipped-label attack scenario of §4.4.
type PoisonConfig = core.PoisonConfig

// Simulation is a running Specializing DAG experiment.
type Simulation = core.Simulation

// RoundResult records the evaluation of one simulated round.
type RoundResult = core.RoundResult

// NewSimulation validates inputs and prepares a Specializing DAG simulation.
func NewSimulation(fed *Federation, cfg Config) (*Simulation, error) {
	return core.NewSimulation(fed, cfg)
}

// AsyncConfig parameterizes the event-driven (round-free) simulation with
// heterogeneous client speeds and network delay (§5.3.3: "no stragglers").
type AsyncConfig = core.AsyncConfig

// AsyncResult is the outcome of an event-driven run.
type AsyncResult = core.AsyncResult

// AsyncClientStats summarizes one client's activity in an async run.
type AsyncClientStats = core.AsyncClientStats

// ---- Fault injection (internal/faults) ----

// FaultConfig is a deterministic network/client fault schedule for the
// simulation engines: per-link latency and jitter, broadcast drops recovered
// by re-gossip, duplicate deliveries, scheduled split-and-heal partitions,
// stragglers (cycle-time multipliers) and crash/recover churn. Set
// Config.Faults or AsyncConfig.Faults (with NetworkDelay 0) to enable it;
// the zero value disables fault injection. Every draw is keyed on stable
// identifiers via seed splits, so a faulty run remains bit-identical across
// worker counts and checkpoint/resume boundaries.
type FaultConfig = faults.Config

// FaultPartition is one scheduled network partition in a FaultConfig: the
// federation splits into Groups disjoint groups during [From, To) and heals.
type FaultPartition = faults.Partition

// ScalarFaults returns the fault schedule exactly equivalent to a uniform
// broadcast delay — the engines produce bit-identical results either way.
func ScalarFaults(delay float64) FaultConfig { return faults.Scalar(delay) }

// ---- Tangle (internal/dag) ----

// DAG is the thread-safe tangle of model-update transactions.
type DAG = dag.DAG

// Transaction is one published model update in the DAG.
type Transaction = dag.Transaction

// TxID identifies a transaction within a DAG.
type TxID = dag.ID

// TxMeta is the experiment bookkeeping attached to a transaction.
type TxMeta = dag.Meta

// NewDAG creates a tangle containing a genesis transaction with the given
// initial model parameters.
func NewDAG(genesisParams []float64) *DAG { return dag.New(genesisParams) }

// ReadDAG deserializes a binary DAG snapshot previously written with
// (*DAG).WriteTo, re-validating all structural invariants.
func ReadDAG(r io.Reader) (*DAG, error) { return dag.ReadDAG(r) }

// Compaction is the opt-in epoch-compaction policy for bounded-memory long
// runs: transactions are bucketed into fixed-width epochs by round, and
// epochs older than the live window are frozen — their cumulative weights
// summarized and their parameter vectors released (optionally spilled to
// disk first). Set Config.Compaction or AsyncConfig.Compaction to enable it;
// the zero value keeps the classic keep-everything behavior. With a
// depth-banded selector the produced history, final DAG and gated metrics
// are byte-identical to an uncompacted run.
type Compaction = dag.Compaction

// EpochSummary is the retained summary of one frozen epoch: its ID range,
// per-epoch statistics, the confirmed cumulative weights, and the spill file
// (if any) holding the released parameter vectors.
type EpochSummary = dag.EpochSummary

// ---- Tip selection (internal/tipselect) ----

// Selector chooses tips of the DAG for approval.
type Selector = tipselect.Selector

// Evaluator scores a transaction's model on a walker's local data.
type Evaluator = tipselect.Evaluator

// AccuracyWalk is the paper's accuracy-biased random walk (Algorithm 1).
type AccuracyWalk = tipselect.AccuracyWalk

// WeightedWalk is the classic cumulative-weight tangle walk (Fig. 3).
type WeightedWalk = tipselect.WeightedWalk

// URTS is uniform random tip selection.
type URTS = tipselect.URTS

// UniformWalk is an unbiased random walk over the DAG.
type UniformWalk = tipselect.UniformWalk

// Normalization selects the accuracy normalization of the walk weights.
type Normalization = tipselect.Normalization

// Normalization modes: Eq. 1 (standard) and Eq. 3 (dynamic).
const (
	NormStandard = tipselect.NormStandard
	NormDynamic  = tipselect.NormDynamic
)

// WalkWeights converts child accuracies into selection weights (Eqs. 1-3).
func WalkWeights(accs []float64, alpha float64, norm Normalization) []float64 {
	return tipselect.Weights(accs, alpha, norm)
}

// ---- Models (internal/nn) ----

// Arch describes a feed-forward architecture.
type Arch = nn.Arch

// SGDConfig controls local mini-batch SGD training.
type SGDConfig = nn.SGDConfig

// MLP is a feed-forward network with ReLU hidden layers and softmax output.
type MLP = nn.MLP

// NewModel constructs a model with Glorot-initialized weights from seed.
func NewModel(arch Arch, seed int64) *MLP { return nn.New(arch, xrand.New(seed)) }

// AverageParams returns the element-wise mean of parameter vectors — the
// model-averaging step of both FedAvg and the DAG.
func AverageParams(vecs ...[]float64) []float64 { return nn.AverageParams(vecs...) }

// ---- Datasets (internal/dataset) ----

// Federation is a complete federated dataset.
type Federation = dataset.Federation

// FedClient is one federated participant with private train/test splits.
type FedClient = dataset.Client

// Dataset is an ordered collection of samples.
type Dataset = dataset.Dataset

// Sample is a single labeled example.
type Sample = dataset.Sample

// FMNISTConfig parameterizes the synthetic FMNIST-clustered dataset.
type FMNISTConfig = dataset.FMNISTConfig

// PoetsConfig parameterizes the two-language next-character dataset.
type PoetsConfig = dataset.PoetsConfig

// CIFARConfig parameterizes the synthetic CIFAR-100/PAM dataset.
type CIFARConfig = dataset.CIFARConfig

// FedProxConfig parameterizes the FedProx Synthetic(alpha, beta) dataset.
type FedProxConfig = dataset.FedProxConfig

// FMNISTClustered generates the synthetic FMNIST-clustered federation
// (paper §5.1.1).
func FMNISTClustered(cfg FMNISTConfig) *Federation { return dataset.FMNISTClustered(cfg) }

// Poets generates the two-language next-character federation (§5.1.2).
func Poets(cfg PoetsConfig) *Federation { return dataset.Poets(cfg) }

// CIFAR100PAM generates the synthetic CIFAR-100 federation with
// Pachinko-style allocation (§5.1.3).
func CIFAR100PAM(cfg CIFARConfig) *Federation { return dataset.CIFAR100PAM(cfg) }

// FedProxSynthetic generates the Synthetic(alpha, beta) federation
// (§5.3.3).
func FedProxSynthetic(cfg FedProxConfig) *Federation { return dataset.FedProxSynthetic(cfg) }

// ---- Centralized baselines (internal/fl) ----

// FedConfig parameterizes a FedAvg/FedProx run.
type FedConfig = fl.Config

// FedResult is a full FedAvg/FedProx run.
type FedResult = fl.Result

// ---- Metrics (internal/metrics, internal/graphx) ----

// Graph is an undirected weighted graph over client IDs.
type Graph = graphx.Graph

// BoxStats summarizes an accuracy sample for box plots.
type BoxStats = metrics.BoxStats

// BuildClientGraph derives the G_clients graph from a DAG (§4.3).
func BuildClientGraph(d *DAG) *Graph { return metrics.BuildClientGraph(d) }

// ApprovalPureness is the fraction of same-cluster approvals (Table 2).
func ApprovalPureness(d *DAG, clusterOf map[int]int) float64 {
	return metrics.ApprovalPureness(d, clusterOf)
}

// Misclassification is the fraction of clients whose inferred community
// majority disagrees with their true cluster (§4.3).
func Misclassification(partition, truth map[int]int) float64 {
	return metrics.Misclassification(partition, truth)
}

// Modularity computes Newman's modularity of a partition.
func Modularity(g *Graph, partition map[int]int) float64 { return graphx.Modularity(g, partition) }

// Louvain detects communities by modularity maximization. Pass seed < 0 for
// a deterministic visiting order.
func Louvain(g *Graph, seed int64) map[int]int {
	if seed < 0 {
		return graphx.Louvain(g, nil)
	}
	return graphx.Louvain(g, xrand.New(seed))
}

// NumCommunities returns the number of distinct communities in a partition.
func NumCommunities(partition map[int]int) int { return graphx.NumCommunities(partition) }

// NewBoxStats computes distribution statistics for box plots (Fig. 9).
func NewBoxStats(values []float64) BoxStats { return metrics.NewBoxStats(values) }

// PoisonedApprovals counts poisoned transactions among a transaction's
// ancestors (Fig. 13).
func PoisonedApprovals(d *DAG, id TxID) int { return metrics.PoisonedApprovals(d, id) }
