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
//   - the centralized FedAvg/FedProx baselines ([NewFederated]);
//   - one unified run API behind all of them ([Run]): every engine is
//     cancelable via context, observable mid-flight through typed progress
//     events ([Hooks], [WithProbe]), and — for both DAG simulations —
//     checkpointable and resumable bit-identically ([WithCheckpoints],
//     [ResumeSimulation], [ResumeAsyncSimulation]);
//   - a shared worker budget ([WorkerPool]) so nested fan-outs (sweeps of
//     engines, each fanning over clients) never oversubscribe the machine,
//     and a [Scheduler] multiplexing many runs onto one;
//   - synthetic federated datasets with cluster-structured non-IID data
//     ([FMNISTClustered], [FedProxSynthetic]);
//   - the specialization metrics of the paper's evaluation
//     ([ApprovalPureness], [BuildClientGraph], [Louvain], [Modularity],
//     [Misclassification]);
//   - a serving layer ([NewServer], [Subscribe]) hosting many runs behind
//     HTTP and streaming their events to any number of subscribers.
//
// The package exports what its Example functions and the README use, and
// nothing else (TestPublicSurfaceIsUsed): the examples are the quickstart,
// the α sweep, the baseline comparison, the poisoning scenario, crash
// recovery of the event-driven engine and live serving, each run and
// compared with its pinned output by go test. What else the engines can do
// — the paper's other datasets, the other tip selectors and normalizations,
// epoch compaction — is reached by name through a [RunRequest] or the flags
// of cmd/specdag; cmd/experiments regenerates every table and figure of the
// paper, the gossip-learning baseline among them.
//
// # Formats
//
// A checkpoint is SDC3 (round engine) or SDA3 (event engine): four magic
// bytes, the tangle in the SDG1 record codec, then the engine state in a
// hand-written binary section whose parameter vectors are raw spans — written
// and read as a stream. A build reads its own generation and the one before
// (SDC2/SDA2, whose state was one gob value) and names older ones.
// Resuming needs the same federation and configuration as the original run;
// a resumed run's history and DAG are bit-identical to an uninterrupted
// run's.
//
// Event streams travel in SDE1, a versioned frame codec ([EventFrame]): a
// Start frame identifying the run, one frame per engine event, then
// lifecycle frames (Checkpoint, Gap, End). The format is append-only and
// gob-compatible additions keep the SDE1 magic; a breaking change bumps it.
// cmd/specdag -events records a local run in the same format, and
// cmd/dagstat inspects saved streams and checkpoints.
//
// A slow subscriber never stalls an engine: each run's events fan out
// through a bounded ring whose appends never block, and a subscriber that
// falls more than a ring behind is told exactly which index range it missed
// (a Gap frame). It then continues from the oldest retained frame or fetches
// the run's checkpoint and resumes the stream from the checkpoint's index.
package specdag

import (
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

// NewSimulation validates inputs and prepares a Specializing DAG simulation.
func NewSimulation(fed *Federation, cfg Config) (*Simulation, error) {
	return core.NewSimulation(fed, cfg)
}

// AsyncConfig parameterizes the event-driven (round-free) simulation with
// heterogeneous client speeds and network delay (§5.3.3: "no stragglers").
type AsyncConfig = core.AsyncConfig

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

// ---- Tangle (internal/dag) ----

// DAG is the thread-safe tangle of model-update transactions.
type DAG = dag.DAG

// ---- Tip selection (internal/tipselect) ----

// Selector chooses tips of the DAG for approval.
type Selector = tipselect.Selector

// AccuracyWalk is the paper's accuracy-biased random walk (Algorithm 1).
type AccuracyWalk = tipselect.AccuracyWalk

// URTS is uniform random tip selection.
type URTS = tipselect.URTS

// ---- Models (internal/nn) ----

// Arch describes a feed-forward architecture.
type Arch = nn.Arch

// SGDConfig controls local mini-batch SGD training.
type SGDConfig = nn.SGDConfig

// ---- Datasets (internal/dataset) ----

// Federation is a complete federated dataset.
type Federation = dataset.Federation

// FMNISTConfig parameterizes the synthetic FMNIST-clustered dataset.
type FMNISTConfig = dataset.FMNISTConfig

// FedProxConfig parameterizes the FedProx Synthetic(alpha, beta) dataset.
type FedProxConfig = dataset.FedProxConfig

// FMNISTClustered generates the synthetic FMNIST-clustered federation
// (paper §5.1.1).
func FMNISTClustered(cfg FMNISTConfig) *Federation { return dataset.FMNISTClustered(cfg) }

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

// Louvain detects communities by modularity maximization, visiting nodes in
// an order drawn from seed.
func Louvain(g *Graph, seed int64) map[int]int { return graphx.Louvain(g, xrand.New(seed)) }

// NumCommunities returns the number of distinct communities in a partition.
func NumCommunities(partition map[int]int) int { return graphx.NumCommunities(partition) }
