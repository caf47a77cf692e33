// Package sim is the experiment harness: it binds datasets, model
// architectures and Table-1 hyperparameters into ready-to-run
// configurations, and provides one runner per table and figure of the
// paper's evaluation (§5), bound to its ID, rendering and metrics in one
// table (Experiments). Each runner exists in two scales: Quick for tests and
// benchmarks (seconds) and Full for paper-scale runs.
//
// Every runner has one shape (sweep.go): declare the runs as lines, sweep
// them as one grid on the shared scheduler, read the measurement
// off each finished engine's own history. That history travels in the
// engine's checkpoint, so with a grid directory every DAG line — Fig. 14's
// single run included — resumes after a crash. What recomputes instead: the
// fl baselines (no checkpoints), the watched lines, whose measurement exists
// only while the run executes (Fig. 5's periodic Louvain, the fault sweep's
// per-event accuracies), and the timing runs (Fig. 15, sequential and off
// the grid; the sched-grid lines).
//
// The package keeps no process state: the worker budget and the grid
// checkpoint directory arrive as an Env value, so sweeps with different Envs
// can run side by side. The commands fill one from their flags; nothing here
// reads the process environment.
package sim

import (
	"fmt"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// Env is what a runner takes from its surroundings, handed down as a value.
// The zero value is a fresh NumCPU-sized budget per runner call and no grid
// checkpoints.
type Env struct {
	// Pool is the one worker budget that sweep lines (a figure line,
	// ablation variant or scenario each) and the engines inside them draw
	// from, so nested fan-outs never run more goroutines than its size in
	// total; it is the grid's one worker bound, and the Workers setting of
	// every config the harness assembles is that size. Every experiment is
	// deterministic for any size — lines are read back by index and each
	// simulation is worker-count invariant — so it only trades wall clock
	// for CPU.
	Pool *par.Budget
	// GridDir is the sweep's checkpoint directory, one file per line named
	// after it: a crashed sweep rerun resumes its lines instead of
	// recomputing them. "" runs sweeps without checkpoints.
	GridDir string
}

// withPool fills in the zero value's budget.
func (e Env) withPool() Env {
	if e.Pool == nil {
		e.Pool = par.NewBudget(0)
	}
	return e
}

// Preset selects the experiment scale.
type Preset int

const (
	// Quick shrinks client counts and rounds so every experiment finishes
	// in seconds; shapes (who wins, trends) are preserved.
	Quick Preset = iota
	// Full matches the paper's scale: 100 rounds, 10 clients per round,
	// full federation sizes.
	Full
)

// String returns the preset name.
func (p Preset) String() string {
	if p == Full {
		return "full"
	}
	return "quick"
}

// Rounds returns the number of training rounds for the preset (Table 1
// uses 100).
func (p Preset) Rounds() int {
	if p == Full {
		return 100
	}
	return 20
}

// ClientsPerRound returns the per-round activation count (Table 1: 10).
func (p Preset) ClientsPerRound() int {
	if p == Full {
		return 10
	}
	return 5
}

// Spec bundles a federation with its model architecture, the local training
// hyperparameters of Table 1, and the tip selector used for the headline
// experiments on this dataset.
type Spec struct {
	Name     string
	Fed      *dataset.Federation
	Arch     nn.Arch
	Local    nn.SGDConfig
	Selector tipselect.Selector
}

// FMNISTSpec builds the FMNIST-clustered setup. Table 1: 1 local epoch,
// 10 local batches, batch size 10, SGD(0.05).
func FMNISTSpec(p Preset, seed int64) Spec {
	// NoiseStd 2.5 makes classes overlap enough that convergence takes tens
	// of rounds, mirroring the paper's CNN trajectory: specialized models
	// (few classes) improve visibly earlier than generalized ones.
	cfg := dataset.FMNISTConfig{Seed: seed, NoiseStd: 2.5}
	if p == Quick {
		cfg.Clients = 30
		cfg.TrainPerClient = 60
		cfg.TestPerClient = 15
	}
	fed := dataset.FMNISTClustered(cfg)
	return Spec{
		Name:     "FMNIST-clustered",
		Fed:      fed,
		Arch:     nn.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Local:    nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, MaxBatches: 10},
		Selector: tipselect.AccuracyWalk{Alpha: 10},
	}
}

// RelaxedFMNISTSpec builds the relaxed variant of Fig. 8 (15–20 % of each
// client's data comes from foreign clusters).
func RelaxedFMNISTSpec(p Preset, seed int64) Spec {
	cfg := dataset.FMNISTConfig{Seed: seed, RelaxedMin: 0.15, RelaxedMax: 0.20}
	if p == Quick {
		cfg.Clients = 30
		cfg.TrainPerClient = 60
		cfg.TestPerClient = 15
	}
	fed := dataset.FMNISTClustered(cfg)
	return Spec{
		Name:     "FMNIST-relaxed",
		Fed:      fed,
		Arch:     nn.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Local:    nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, MaxBatches: 10},
		Selector: tipselect.AccuracyWalk{Alpha: 10},
	}
}

// ByWriterFMNISTSpec builds the authorship-split FMNIST used by the
// poisoning and scalability experiments (§5.3.4, §5.3.5): every client
// holds all classes plus a per-writer style offset.
func ByWriterFMNISTSpec(p Preset, seed int64) Spec {
	// NoiseStd 2.5 as in FMNISTSpec: a harder task means one round of local
	// training cannot fully undo a poisoned average, so poisoning exposure
	// becomes measurable (as with the paper's CNN).
	cfg := dataset.FMNISTConfig{Seed: seed, ByWriter: true, NoiseStd: 2.5}
	if p == Quick {
		cfg.Clients = 30
		cfg.TrainPerClient = 60
		cfg.TestPerClient = 20
	}
	fed := dataset.FMNISTClustered(cfg)
	return Spec{
		Name:     "FMNIST-bywriter",
		Fed:      fed,
		Arch:     nn.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Local:    nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, MaxBatches: 10},
		Selector: tipselect.AccuracyWalk{Alpha: 10},
	}
}

// PoetsSpec builds the two-language next-character setup. Table 1: 1 local
// epoch, 35 local batches, batch size 10, SGD(0.8).
func PoetsSpec(p Preset, seed int64) Spec {
	cfg := dataset.PoetsConfig{Seed: seed}
	if p == Quick {
		cfg.ClientsPerLanguage = 6
		cfg.CharsPerClient = 250
	}
	fed := dataset.Poets(cfg)
	return Spec{
		Name:     "Poets",
		Fed:      fed,
		Arch:     nn.Arch{In: fed.InputDim, Hidden: []int{64}, Out: fed.NumClasses},
		Local:    nn.SGDConfig{LR: 0.8, Epochs: 1, BatchSize: 10, MaxBatches: 35},
		Selector: tipselect.AccuracyWalk{Alpha: 10},
	}
}

// CIFARSpec builds the CIFAR-100/PAM setup. Table 1: 5 local epochs, 45
// local batches, batch size 10, SGD(0.01).
func CIFARSpec(p Preset, seed int64) Spec {
	// NoiseStd 1.8 (vs. subclass offsets of 0.6) keeps the 100-class task
	// hard, like real CIFAR-100: a generalized model cannot master all
	// superclasses within 100 rounds, so specializing on the client's own
	// superclass mixture pays off — the condition behind the paper's
	// pureness of 0.51.
	// RootAlpha 0.02 concentrates each client on very few superclasses, as
	// TFF's PAM split does in practice; this gives clients a meaningful
	// majority-superclass affiliation for the pureness metric.
	cfg := dataset.CIFARConfig{Seed: seed, NoiseStd: 1.8, RootAlpha: 0.02}
	if p == Quick {
		cfg.Clients = 24
		cfg.TrainPerClient = 60
		cfg.TestPerClient = 15
	} else {
		// Table 1 trains 45 local batches of 10 per epoch, so full-scale
		// clients hold 450 train samples; 50 test samples keep walk
		// accuracy estimates from drowning in sampling noise.
		cfg.TrainPerClient = 450
		cfg.TestPerClient = 50
	}
	fed := dataset.CIFAR100PAM(cfg)
	// The narrow 32-unit trunk forces the 100 output classes to compete for
	// shared features — the analogue of the paper's shared CNN trunk, and
	// the source of cross-cluster interference that rewards specialization.
	//
	// CIFAR uses the dynamic normalization (Eq. 3) with a higher α: with 20
	// clusters the walk must overcome a 19:1 base rate against same-cluster
	// children, and the standard normalization's absolute accuracy gaps are
	// too small on this hard task (the exact failure mode Eq. 3 exists for).
	return Spec{
		Name:     "CIFAR-100",
		Fed:      fed,
		Arch:     nn.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Local:    nn.SGDConfig{LR: 0.05, Epochs: 5, BatchSize: 10, MaxBatches: 45},
		Selector: tipselect.AccuracyWalk{Alpha: 30, Norm: tipselect.NormDynamic},
	}
}

// FedProxSpec builds the Synthetic(0.5, 0.5) comparison setup of §5.3.3
// (30 clients, softmax regression, as in the FedProx paper).
func FedProxSpec(p Preset, seed int64) Spec {
	cfg := dataset.FedProxConfig{Seed: seed}
	if p == Quick {
		cfg.Clients = 15
		cfg.MaxSamples = 200
	}
	fed := dataset.FedProxSynthetic(cfg)
	return Spec{
		Name:     "FedProx-synthetic(0.5,0.5)",
		Fed:      fed,
		Arch:     nn.Arch{In: fed.InputDim, Out: fed.NumClasses},
		Local:    nn.SGDConfig{LR: 0.05, Epochs: 2, BatchSize: 10},
		Selector: tipselect.AccuracyWalk{Alpha: 10},
	}
}

// DAGConfig assembles a core.Config for the spec with the given selector.
// The simulation draws its round fan-out from env's budget.
func (s Spec) DAGConfig(env Env, p Preset, sel tipselect.Selector, seed int64) core.Config {
	env = env.withPool()
	return core.Config{
		Rounds:          p.Rounds(),
		ClientsPerRound: p.ClientsPerRound(),
		Local:           s.Local,
		Arch:            s.Arch,
		Selector:        sel,
		Workers:         env.Pool.Size(),
		Pool:            env.Pool,
		Seed:            seed,
	}
}

// AsyncDAGConfig assembles a core.AsyncConfig for the spec — the
// event-driven engine's counterpart of DAGConfig. Timing parameters are in
// simulated seconds.
func (s Spec) AsyncDAGConfig(env Env, duration, minCycle, maxCycle, netDelay float64, sel tipselect.Selector, seed int64) core.AsyncConfig {
	env = env.withPool()
	return core.AsyncConfig{
		Duration:     duration,
		MinCycle:     minCycle,
		MaxCycle:     maxCycle,
		NetworkDelay: netDelay,
		Local:        s.Local,
		Arch:         s.Arch,
		Selector:     sel,
		Workers:      env.Pool.Size(),
		Pool:         env.Pool,
		Seed:         seed,
	}
}

// FLConfig assembles an fl.Config for the spec, mirroring the preset's
// round structure.
func (s Spec) FLConfig(env Env, p Preset, proxMu float64, seed int64) fl.Config {
	env = env.withPool()
	return fl.Config{
		Rounds:          p.Rounds(),
		ClientsPerRound: p.ClientsPerRound(),
		Local:           s.Local,
		ProxMu:          proxMu,
		Arch:            s.Arch,
		Workers:         env.Pool.Size(),
		Pool:            env.Pool,
		Seed:            seed,
	}
}

// Table1 renders the fixed training hyperparameters (Table 1 of the paper)
// as a markdown table. These values are encoded in the Spec constructors.
func Table1() string {
	return fmt.Sprintf(`### Table 1: hyperparameters

| Parameter | FMNIST-clustered | Poets | CIFAR-100 |
|---|---|---|---|
| Training rounds | %d | %d | %d |
| Clients / round | %d | %d | %d |
| Local epochs | 1 | 1 | 5 |
| Local batches | 10 | 35 | 45 |
| Batch size | 10 | 10 | 10 |
| Optimizer | SGD(0.05) | SGD(0.8) | SGD(0.01) |
`,
		Full.Rounds(), Full.Rounds(), Full.Rounds(),
		Full.ClientsPerRound(), Full.ClientsPerRound(), Full.ClientsPerRound())
}
