package sim

// Long-haul preset: the bounded-memory endurance run behind ROADMAP item 2.
// A deliberately small federation (tiny feature dimension, tiny model) keeps
// the per-event compute negligible, so a run of ~10^6 client activations
// finishes in minutes and the binding constraint is exactly what the preset
// exists to demonstrate: memory retention. With epoch compaction enabled the
// run completes in bounded RSS — old epochs freeze into summaries, parameter
// vectors spill to disk, and checkpoints stay proportional to the live
// suffix — while staying byte-identical to an uncompacted run.

import (
	"context"
	"fmt"
	"runtime"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
)

// LongHaulSelector is the depth-banded accuracy walk the long-haul preset
// runs: walks enter the DAG 15-25 approval hops above the tips, which (a)
// matches the paper's biased-walk dynamics and (b) gives compaction its
// structural freeze guard — GuardDepth derives from DepthMax, so everything
// the walk can ever read stays in the live suffix.
func LongHaulSelector() tipselect.Selector {
	return tipselect.AccuracyWalk{Alpha: 10, DepthMin: 15, DepthMax: 25}
}

// The long-haul federation's shape, which LongHaulAsyncConfig needs without
// generating the federation.
const (
	longHaulClients = 50
	longHaulDim     = 16
	longHaulClasses = 10 // the FMNIST-clustered generator's class count
)

// longHaulModel is the long-haul Spec without its federation.
func longHaulModel() Spec {
	return Spec{
		Name:     "FMNIST-longhaul",
		Arch:     nn.Arch{In: longHaulDim, Hidden: []int{8}, Out: longHaulClasses},
		Local:    nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, MaxBatches: 3},
		Selector: LongHaulSelector(),
	}
}

// LongHaulSpec builds the long-haul federation: 50 clients over the
// FMNIST-clustered generator at feature dimension 16 with a single 8-unit
// hidden layer. ~230 model parameters per transaction make per-event training
// cheap while still exercising every publish-gate and walk code path.
func LongHaulSpec(seed int64) Spec {
	spec := longHaulModel()
	spec.Fed = dataset.FMNISTClustered(dataset.FMNISTConfig{
		Seed:           seed,
		Clients:        longHaulClients,
		TrainPerClient: 30,
		TestPerClient:  10,
		Dim:            longHaulDim,
		NoiseStd:       1.5,
	})
	return spec
}

// longHaulScale returns the preset's event target and epoch width (simulated
// seconds). Full is the ROADMAP acceptance bar — a ~10^6-event run; Quick is
// sized for tests but still spans many epochs so freezing actually happens.
func longHaulScale(p Preset) (targetEvents, epochWidth int) {
	if p == Full {
		return 1_000_000, 60
	}
	return 6_000, 10
}

// LongHaulAsyncConfig assembles the event-driven configuration for the
// long-haul run: heterogeneous cycle times in [0.5s, 2s], 0.5s broadcast
// delay, and epoch compaction spilling frozen parameters to spillDir (or
// dropping them when spillDir is empty). The duration is derived from the
// preset's event target via the expected activation rate — for cycle times
// drawn uniformly from [a, b], E[1/c] = ln(b/a)/(b-a) per client. The budget
// is the zero Env's own; callers sharing one set Workers and Pool themselves.
// Nothing here generates the federation: the config needs only its client
// count and model shape.
func LongHaulAsyncConfig(p Preset, spillDir string, seed int64) core.AsyncConfig {
	spec := longHaulModel()
	const minCycle, maxCycle, netDelay = 0.5, 2.0, 0.5
	target, width := longHaulScale(p)
	ratePerClient := 0.9242 // ln(maxCycle/minCycle)/(maxCycle-minCycle)
	duration := float64(target) / (float64(longHaulClients) * ratePerClient)
	acfg := spec.AsyncDAGConfig(Env{}, duration, minCycle, maxCycle, netDelay, spec.Selector, seed)
	acfg.Compaction.Width = width
	acfg.Compaction.Live = 2
	acfg.Compaction.SpillDir = spillDir
	return acfg
}

// LongHaulReport is the outcome of a long-haul run: scale, compaction
// effectiveness, and the two bounded-resource measurements (peak heap during
// the run, checkpoint size at the end).
type LongHaulReport struct {
	Preset          string
	Events          int     // client activations processed
	SimulatedTime   float64 // horizon in simulated seconds
	Transactions    int     // published transactions (incl. genesis)
	LiveFloor       int     // first live transaction ID
	FrozenEpochs    int
	FrozenTxs       int
	SpillBytes      int64  // on-disk bytes of spilled parameter vectors
	PeakHeapBytes   uint64 // max HeapAlloc observed (sampled every few k events)
	CheckpointBytes int64  // full SDA3 checkpoint size at the end of the run
	MeanFinalAcc    float64
}

// LongHaul runs the bounded-memory endurance preset to completion, sampling
// the heap as it goes, and reports compaction effectiveness and resource
// ceilings. spillDir receives one spill file per frozen epoch; the caller
// owns cleanup (tests pass t.TempDir()).
func LongHaul(ctx context.Context, env Env, p Preset, spillDir string, seed int64) (*LongHaulReport, error) {
	spec := LongHaulSpec(seed)
	acfg := LongHaulAsyncConfig(p, spillDir, seed)
	env = env.withPool()
	acfg.Workers, acfg.Pool = env.Pool.Size(), env.Pool
	a, err := core.NewAsyncSimulation(spec.Fed, acfg)
	if err != nil {
		return nil, err
	}

	// Sample HeapAlloc on a fixed event stride. The stride is coarse enough
	// that ReadMemStats cost is invisible, fine enough (vs. the multi-second
	// epoch width) that growth between freezes cannot hide from it.
	const sampleEvery = 2048
	var (
		ms   runtime.MemStats
		peak uint64
	)
	sample := func() {
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	run, err := engine.Run(ctx, a, engine.WithHooks(engine.Hooks{OnRound: func(ev engine.RoundEvent) {
		if (ev.Round+1)%sampleEvery == 0 {
			sample()
		}
	}}))
	if err != nil {
		return nil, err
	}
	sample()

	d := a.DAG()
	rep := &LongHaulReport{
		Preset:          p.String(),
		Events:          run.Steps,
		SimulatedTime:   acfg.Duration,
		Transactions:    d.Size(),
		LiveFloor:       int(d.LiveFloor()),
		PeakHeapBytes:   peak,
		CheckpointBytes: a.Checkpoint().Size(),
	}
	for _, e := range d.FrozenEpochs() {
		rep.FrozenEpochs++
		rep.FrozenTxs += e.Txs
		rep.SpillBytes += e.SpillBytes
	}
	res := a.Result()
	for _, c := range res.Clients {
		rep.MeanFinalAcc += c.FinalAcc
	}
	if len(res.Clients) > 0 {
		rep.MeanFinalAcc /= float64(len(res.Clients))
	}
	return rep, nil
}

// RenderLongHaul formats a long-haul report as markdown.
func RenderLongHaul(r *LongHaulReport) string {
	frozenFrac := 0.0
	if r.Transactions > 0 {
		frozenFrac = float64(r.FrozenTxs) / float64(r.Transactions)
	}
	return fmt.Sprintf(`### Long-haul bounded-memory run (%s scale)

| Metric | Value |
|---|---|
| Events processed | %d |
| Simulated time | %.0f s |
| Transactions | %d |
| Frozen epochs | %d |
| Frozen transactions | %d (%.1f%% of DAG, live floor %d) |
| Spilled parameters | %.2f MiB |
| Peak heap | %.1f MiB |
| Final checkpoint | %.2f MiB |
| Mean final accuracy | %.3f |
`,
		r.Preset, r.Events, r.SimulatedTime, r.Transactions,
		r.FrozenEpochs, r.FrozenTxs, 100*frozenFrac, r.LiveFloor,
		float64(r.SpillBytes)/(1<<20),
		float64(r.PeakHeapBytes)/(1<<20),
		float64(r.CheckpointBytes)/(1<<20),
		r.MeanFinalAcc)
}
