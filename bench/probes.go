package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/wire"
	"github.com/specdag/specdag/internal/xrand"
)

// walksPerActivation is what both engines do per client activation with the
// default ReferenceWalks: two tip walks and one consensus-reference walk.
const walksPerActivation = 3

// A prober produces the per-layer metrics of a traced run. It only calls
// public functions, reads the live DAG without changing it, and keeps every
// piece of scratch it needs — model, evaluation caches, DAG replicas,
// broadcasters — for itself, so a traced run computes exactly what an
// untraced one does (the digests are compared to prove it).
//
// Work is split in two. Boundary probes run inside the traced loop, between
// units, and their cost is the tracing overhead: walks replayed for a few
// sampled clients whenever the engine activates them (so the prober's caches
// are as warm as the engine's own), and reads of the live DAG every few
// units. End probes run once, after the loop, on the finished state.
type prober struct {
	p     params
	tr    *tracer
	arch  nn.Arch
	local nn.SGDConfig
	sel   tipselect.Selector
	// depthMin/depthMax is the selector's entry band, or Popov's 15–25 for
	// genesis-anchored selectors (SampleAtDepth is then off the run's path
	// and its share is reported as zero).
	depthMin, depthMax int
	banded             bool
	every              int
	rng                *xrand.RNG
	mlp                *nn.MLP // evaluates, by aliasing parameter vectors
	trainer            *nn.MLP // trains, from the average of two selected tips
	walkers            map[int]*walker
	floor              dag.ID
	frames             *serve.Broadcaster // the run's events as frames, for the wire and serve probes
	err                error              // first failure of a probe; the traced run fails with it

	inLoop     time.Duration // time spent in boundary probes
	walkUS     []float64     // per walk, replayed with engine-warm caches
	trainUS    []float64     // per Train call, replayed on the averaged tips
	walkStats  tipselect.WalkStats
	walks      int
	replays    int
	sampleUS   []float64
	depthsUS   []float64
	tipsUS     []float64
	childrenNS []float64
	tipCounts  []float64

	// Counts the engines report themselves.
	units       int
	activations int
	published   int
	engineWalk  tipselect.WalkStats // round engines only
	engineWalks int
}

// walker is the bench-owned stand-in for one client's walk state.
type walker struct {
	client *dataset.Client
	cache  *tipselect.EvalCache
}

// newProber makes the prober, and the tracer, of one traced pass over a
// scenario of about units units.
func newProber(p params, spec sim.Spec, units int, seed int64) *prober {
	rng := xrand.New(seed).Split("bench-probes")
	fed := spec.Fed
	pr := &prober{
		p: p, tr: newTracer(fmt.Sprintf("%s-seed%d", p.workload, p.seed)),
		arch: spec.Arch, local: spec.Local, sel: spec.Selector,
		depthMin: 15, depthMax: 25,
		// About fifty probe points a run, whatever its length.
		every:   units/50 + 1,
		rng:     rng,
		mlp:     nn.New(spec.Arch, rng.Split("model")),
		trainer: nn.New(spec.Arch, rng.Split("trainer")),
		walkers: map[int]*walker{},
		frames:  serve.NewBroadcaster(1<<17, 0),
	}
	if w, ok := spec.Selector.(tipselect.AccuracyWalk); ok && w.DepthMax > 0 {
		pr.depthMin, pr.depthMax, pr.banded = w.DepthMin, w.DepthMax, true
	}
	k := len(fed.Clients) / 33
	if k < 2 {
		k = 2
	}
	if k > 4 {
		k = 4
	}
	for _, i := range rng.Split("sample").SampleWithoutReplacement(len(fed.Clients), k) {
		c := fed.Clients[i]
		pr.walkers[c.ID] = &walker{client: c, cache: pr.newCache(c)}
	}
	return pr
}

// newCache builds an evaluation cache scoring on the client's test split with
// the prober's own model, the way the engines wire theirs.
func (pr *prober) newCache(c *dataset.Client) *tipselect.EvalCache {
	return tipselect.NewEvalCache(
		func(params []float64) float64 { return pr.mlp.AccuracyParams(params, c.Test.X, c.Test.Y) },
		func(params [][]float64) []float64 { return pr.mlp.AccuracyManyInto(nil, params, c.Test.X, c.Test.Y) },
	)
}

// hook returns the unit hook of a traced engine run over the live DAG d.
func (pr *prober) hook(d *dag.DAG) unitHook {
	hooks := pr.frames.Hooks()
	return func(unit int, res *engine.StepResult, stepSpan int) {
		t0 := time.Now()
		pr.units++
		var active []int
		switch det := res.Round.Detail.(type) {
		case *core.RoundResult:
			active = det.Active
			pr.engineWalk.Add(det.Walk)
			pr.engineWalks += walksPerActivation * len(det.Active)
		case *core.AsyncEvent:
			active = []int{det.Client}
		}
		pr.activations += len(active)
		pr.published += res.Round.Published
		for _, p := range res.Publishes {
			hooks.OnPublish(p)
		}
		hooks.OnRound(res.Round)

		if floor := d.LiveFloor(); floor > pr.floor {
			pr.floor = floor
			for _, w := range pr.walkers {
				w.cache.Advance(floor)
			}
		}
		for _, id := range active {
			if w := pr.walkers[id]; w != nil {
				pr.replay(w, d, stepSpan)
			}
		}
		if (unit+1)%pr.every == 0 {
			pr.readDAG(d, stepSpan)
		}
		pr.inLoop += time.Since(t0)
	}
}

// replay does what the engine just did for this client — three walks, then
// local training from the average of the two selected tips — with a cache
// that has seen the same activations the engine's cache has, at the same
// moment of the run, so on the same machine state.
func (pr *prober) replay(w *walker, d *dag.DAG, parent int) {
	var stats tipselect.WalkStats
	var tips []*dag.Transaction
	took := pr.tr.timed("tipselect.select_tips", "tipselect", parent, func() {
		var ref tipselect.WalkStats
		tips, stats = tipselect.SelectTips(pr.sel, d, w.cache, pr.rng, walksPerActivation-1)
		_, ref = pr.sel.SelectTip(d, w.cache, pr.rng)
		stats.Add(ref)
	})
	pr.replays++
	pr.walks += walksPerActivation
	pr.walkStats.Add(stats)
	pr.walkUS = append(pr.walkUS, us(took)/walksPerActivation)

	pr.trainer.SetParams(nn.AverageParams(tips[0].Params, tips[1].Params))
	pr.trainUS = append(pr.trainUS, us(pr.tr.timed("nn.train", "nn", parent, func() {
		pr.trainer.Train(w.client.Train.X, w.client.Train.Y, pr.trainConfig(), pr.rng)
	})))
}

// trainConfig is the workload's local SGD configuration as the engines apply
// it: shuffled.
func (pr *prober) trainConfig() nn.SGDConfig {
	cfg := pr.local
	cfg.Shuffle = true
	return cfg
}

var sink int

// readDAG times the read side of the live DAG.
func (pr *prober) readDAG(d *dag.DAG, parent int) {
	pr.sampleUS = append(pr.sampleUS, us(pr.tr.timed("dag.sample_at_depth", "dag", parent, func() {
		sink += int(d.SampleAtDepth(pr.rng, pr.depthMin, pr.depthMax).ID)
	})))
	pr.tipsUS = append(pr.tipsUS, us(pr.tr.timed("dag.tips", "dag", parent, func() {
		pr.tipCounts = append(pr.tipCounts, float64(len(d.Tips())))
	})))
	const reads = 64
	floor, size := int(d.LiveFloor()), d.Size()
	stride := (size-floor)/reads + 1
	took := pr.tr.timed("dag.children", "dag", parent, func() {
		for i := 0; i < reads; i++ {
			sink += len(d.Children(dag.ID(floor + (i*stride)%(size-floor))))
		}
	})
	pr.childrenNS = append(pr.childrenNS, float64(took)/reads)
	pr.depthsUS = append(pr.depthsUS, us(pr.tr.timed("dag.depths", "dag", parent, func() {
		sink += len(d.Depths())
	})))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// check records the first probe failure; the numbers of a failed probe are
// void and the traced run reports the error instead of them.
func (pr *prober) check(err error, what string) bool {
	if err != nil && pr.err == nil {
		pr.err = fmt.Errorf("bench: probe: %s: %w", what, err)
	}
	return err == nil
}

// perOp calls fn repeatedly for about budget inside one span and returns the
// mean time of a call in nanoseconds.
func (pr *prober) perOp(name, layer string, budget time.Duration, fn func()) float64 {
	fn() // first call grows scratch buffers
	calls := 0
	id := pr.tr.begin(name, layer, 0)
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if time.Since(start) >= budget {
			break
		}
	}
	took := time.Since(start)
	pr.tr.end(id)
	return float64(took) / float64(calls)
}

const probeBudget = 20 * time.Millisecond

// loopCost adds up, over the traced passes of a run, the time spent inside
// Step and the time spent between Steps.
type loopCost struct{ inside, outside time.Duration }

func (c *loopCost) add(steps []time.Duration, wall time.Duration) {
	in := time.Duration(0)
	for _, d := range steps {
		in += d
	}
	c.inside += in
	c.outside += wall - in
}

// endInputs is the finished state the end probes read.
type endInputs struct {
	live      *dag.DAG
	snap      snapshotter
	stepDur   []time.Duration
	loopCPU   time.Duration // CPU the traced loop used, boundary probes included
	poolPeak  int
	datasetMS float64
	wallRatio float64 // traced wall ÷ untraced wall − 1, median over the replicates
	cost      loopCost

	// Serving side: what the live streams held. Zero for the engine
	// workloads, which take no checkpoints inside their timed loop.
	streamFrames     []wire.Frame // replaces the prober's own frames when set
	checkpointsPer1k float64
	checkpointBytes  int64
	gapFrames        int
	busyCPU          time.Duration // CPU of the phase the checkpoints stalled; loopCPU when zero
}

// finish runs the end probes, writes every per-layer metric into o, and
// stores the spans.
func (pr *prober) finish(o *outcome, in endInputs) error {
	o.set("dataset.generate_ms", in.datasetMS)
	pr.probeMathx(o)
	trainUS, evalUS := pr.probeNN(o, in.live)
	pr.probeWalks(o, in.live)
	pr.probeDAG(o, in)
	ckptMBps := pr.probeCheckpoint(o, in)
	pr.probeEngine(o)
	frames := in.streamFrames
	if frames == nil {
		frames = pr.drainFrames()
	}
	pr.probeWire(o, frames)
	pr.probeServe(o, frames)
	o.set("serve.gap_frames", float64(in.gapFrames))
	o.set("par.budget_peak", float64(in.poolPeak))

	steps := in.stepDur
	stepUS := make([]float64, len(steps))
	maxMS := 0.0
	for i, d := range steps {
		stepUS[i] = us(d)
		maxMS = math.Max(maxMS, ms(d))
	}
	o.set("core.step_us_mean", mathx.Mean(stepUS))
	o.set("core.step_max_ms", maxMS)
	units, acts := float64(max(pr.units, 1)), float64(max(pr.activations, 1))
	// Boundary probes run on the driving goroutine, so their wall is their CPU.
	cpu := in.loopCPU - pr.inLoop
	if cpu <= 0 {
		cpu = time.Duration(mathx.Mean(stepUS)*units) * time.Microsecond
	}
	o.set("core.step_cpu_us_mean", us(cpu)/units)
	o.set("core.publish_ratio", float64(pr.published)/acts)

	// A layer's estimated share of the run is its probe cost × its calls,
	// over the CPU the run used. These are estimates by construction: exact
	// self time needs spans inside the program.
	misses := o.metrics["tipselect.cache_misses_per_activation"]
	walkUS := o.metrics["tipselect.walk_us_warm"]
	perAct := func(usPerActivation float64) float64 { return usPerActivation * acts / us(cpu) }
	trainShare := perAct(trainUS)
	walkShare := perAct(walkUS * walksPerActivation)
	// After training the engines score the trained model and the reference:
	// two evaluations per activation outside the walks.
	postEval := perAct(2 * evalUS)
	o.set("nn.train_share", trainShare)
	o.set("tipselect.walk_share", walkShare)
	o.set("nn.eval_share", perAct((misses+2)*evalUS))
	sampleShare := 0.0
	if pr.banded {
		sampleShare = perAct(walksPerActivation * mathx.Mean(pr.sampleUS))
	}
	o.set("dag.sample_at_depth_share", sampleShare)

	busy := in.busyCPU
	if busy <= 0 {
		busy = cpu
	}
	ckptShare := 0.0
	if ckptMBps > 0 {
		ckptShare = float64(in.checkpointBytes) / mb / ckptMBps / busy.Seconds()
	}
	o.set("core.checkpoint_share", ckptShare)
	o.set("core.checkpoints_per_1k_units", in.checkpointsPer1k)
	// What no probe accounts for. Cadence checkpoints are left out of the sum:
	// only the serving workload takes them, and there they are a share of the
	// live phase, not of the twin these other shares describe.
	o.set("core.step_unattributed_share", 1-trainShare-walkShare-postEval)

	// What tracing cost: the part of the traced loops spent outside Step —
	// probes, span bookkeeping, frame capture — over the part spent inside,
	// summed over the replicates (replays come in lumps of a whole Train call).
	// The ratio of a traced to an untraced wall says the same end to end, but
	// on a machine whose speed drifts it is mostly noise.
	overhead := 0.0
	if in.cost.inside > 0 && in.cost.outside > 0 {
		overhead = float64(in.cost.outside) / float64(in.cost.inside)
	}
	o.set("bench.trace_overhead_share", overhead)
	o.set("bench.trace_wall_ratio_share", in.wallRatio)
	if pr.err != nil {
		return pr.err
	}
	return pr.tr.write(tracePath(pr.p))
}

// probeMathx times the four batched kernels at the workload's hidden-layer
// shape and training batch size.
func (pr *prober) probeMathx(o *outcome) {
	rows := pr.local.BatchSize
	if rows <= 0 {
		rows = 10
	}
	in, out := pr.arch.In, pr.arch.Out
	hid := out
	if len(pr.arch.Hidden) > 0 {
		hid = pr.arch.Hidden[0]
	}
	rng := pr.rng.Split("mathx")
	matrix := func(r, c int) mathx.Matrix {
		m := mathx.NewMatrix(r, c)
		copy(m.Data, rng.NormalVec(r*c, 0, 1))
		return m
	}
	x, w, b, act := matrix(rows, in), rng.NormalVec(hid*in, 0, 0.1), rng.NormalVec(hid, 0, 0.1), mathx.NewMatrix(rows, hid)
	o.set("mathx.affine_relu_ns_per_row", pr.perOp("mathx.affine_rows_relu", "mathx", probeBudget, func() {
		mathx.AffineRowsReLU(x, w, b, act)
	})/float64(rows))

	delta, wg, bg := matrix(rows, hid), make([]float64, hid*in), make([]float64, hid)
	o.set("mathx.accum_grads_ns_per_row", pr.perOp("mathx.accum_grads", "mathx", probeBudget, func() {
		mathx.AccumGrads(delta, x, wg, bg)
	})/float64(rows))

	deltaOut, wOut, prev := matrix(rows, out), rng.NormalVec(out*hid, 0, 0.1), mathx.NewMatrix(rows, hid)
	o.set("mathx.backprop_ns_per_row", pr.perOp("mathx.backprop_relu_delta", "mathx", probeBudget, func() {
		mathx.BackpropReLUDelta(deltaOut, wOut, act, prev)
	})/float64(rows))

	logits := matrix(rows, out)
	o.set("mathx.softmax_ns_per_row", pr.perOp("mathx.softmax_rows", "mathx", probeBudget, func() {
		mathx.SoftmaxRows(logits)
	})/float64(rows))
}

// anyWalker returns the sampled client with the lowest ID.
func (pr *prober) anyWalker() *walker {
	var best *walker
	for _, w := range pr.walkers {
		if best == nil || w.client.ID < best.client.ID {
			best = w
		}
	}
	return best
}

// liveParams returns up to n parameter vectors of live transactions.
func liveParams(d *dag.DAG, n int) [][]float64 {
	var out [][]float64
	for id := d.Size() - 1; id >= int(d.LiveFloor()) && len(out) < n; id-- {
		if p := d.MustGet(dag.ID(id)).Params; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// probeNN times local training and model evaluation on a sampled client's
// own splits with the workload's SGD configuration.
func (pr *prober) probeNN(o *outcome, live *dag.DAG) (trainUS, evalUS float64) {
	c := pr.anyWalker().client
	cfg := pr.trainConfig()
	rng := pr.rng.Split("train")
	// Training starts from a published model, as in the engines: the kernels
	// skip zero activations, so a random start would cost more than a real one.
	model := nn.New(pr.arch, rng)
	start := liveParams(live, 1)[0]
	train := func() {
		model.SetParams(start)
		model.Train(c.Train.X, c.Train.Y, cfg, rng)
	}
	// The replays inside the loop timed Train where the engine ran it; a run
	// too short to have activated a sampled client is timed here instead.
	trainUS = mathx.Mean(pr.trainUS)
	if len(pr.trainUS) == 0 {
		trainUS = pr.perOp("nn.train", "nn", 5*probeBudget, train) / 1e3
	}
	o.set("nn.train_us_per_call", trainUS)
	const allocCalls = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		train()
	}
	runtime.ReadMemStats(&after)
	o.set("nn.train_allocs_per_call", float64(after.Mallocs-before.Mallocs)/allocCalls)

	// The batch a walk step scores is its children: evaluations ÷ steps.
	batch := 1
	if pr.walkStats.Steps > 0 {
		batch = max(1, int(math.Round(float64(pr.walkStats.Evaluations)/float64(pr.walkStats.Steps))))
	}
	models := liveParams(live, max(batch, 8))
	evalUS = pr.perOp("nn.evaluate_params", "nn", probeBudget, func() {
		for _, p := range models {
			pr.mlp.EvaluateParams(p, c.Test.X, c.Test.Y)
		}
	}) / 1e3 / float64(len(models))
	o.set("nn.eval_us_per_model", evalUS)
	group := models[:min(batch, len(models))]
	var accs []float64
	o.set("nn.eval_many_us_per_model", pr.perOp("nn.accuracy_many_into", "nn", probeBudget, func() {
		accs = pr.mlp.AccuracyManyInto(accs[:0], group, c.Test.X, c.Test.Y)
	})/1e3/float64(len(group)))

	// Computed, not measured: multiply-adds of the dense layers, two flops
	// each — forward only for an evaluated sample, forward, backward and
	// gradient for a trained one.
	weights := float64(pr.arch.NumParams())
	batches := float64(c.Train.Len()) / float64(max(cfg.BatchSize, 1))
	if cfg.MaxBatches > 0 {
		batches = math.Min(batches, float64(cfg.MaxBatches))
	}
	trained := float64(cfg.Epochs) * batches * float64(max(cfg.BatchSize, 1))
	evaluated := float64(c.Test.Len()) * (pr.missesPerActivation() + 2)
	o.set("mathx.computed_mflop_per_activation", (6*weights*trained+2*weights*evaluated)/1e6)
	return trainUS, evalUS
}

func (pr *prober) missesPerActivation() float64 {
	misses := 0
	for _, w := range pr.walkers {
		misses += w.cache.Misses()
	}
	return float64(misses) / float64(max(pr.replays, 1))
}

// probeWalks reports the replayed walks and times cold ones on the final DAG.
func (pr *prober) probeWalks(o *outcome, live *dag.DAG) {
	hits, misses := 0, 0
	for _, w := range pr.walkers {
		hits += w.cache.Hits()
		misses += w.cache.Misses()
	}
	o.set("tipselect.walk_us_warm", mathx.Mean(pr.walkUS))
	o.set("tipselect.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	o.set("tipselect.cache_misses_per_activation", pr.missesPerActivation())
	// The round engines report their own walk statistics, exactly; the async
	// engine reports none, so the replayed walks stand in for it.
	stats, walks := pr.walkStats, pr.walks
	if pr.engineWalks > 0 {
		stats, walks = pr.engineWalk, pr.engineWalks
	}
	o.set("tipselect.steps_per_walk", float64(stats.Steps)/float64(max(walks, 1)))
	o.set("tipselect.evals_per_walk", float64(stats.Evaluations)/float64(max(walks, 1)))
	o.set("core.evals_per_activation", walksPerActivation*float64(stats.Evaluations)/float64(max(walks, 1)))

	var cold []float64
	for _, w := range pr.walkers {
		cache := pr.newCache(w.client)
		cache.Advance(live.LiveFloor())
		took := pr.tr.timed("tipselect.select_tips_cold", "tipselect", 0, func() {
			tipselect.SelectTips(pr.sel, live, cache, pr.rng, walksPerActivation)
		})
		cold = append(cold, us(took)/walksPerActivation)
	}
	o.set("tipselect.walk_us_cold", mathx.Mean(cold))
}

// replica rebuilds the live DAG's structure in a DAG the prober owns, so that
// Add, the cumulative-weight sweep and compaction can be timed without
// touching the run's own DAG. Parameter vectors are shared read-only; frozen
// transactions, whose vectors the run released, get a filler of the same
// length.
func (pr *prober) replica(live *dag.DAG, timeAdds bool) (*dag.DAG, float64) {
	txs := live.All()
	filler := make([]float64, pr.arch.NumParams())
	params := func(t *dag.Transaction) []float64 {
		if t.Params != nil {
			return t.Params
		}
		return filler
	}
	d := dag.New(params(txs[0]))
	d.SetParallelism(par.NewBudget(pr.p.nproc), pr.p.nproc)
	add := func() {
		for _, t := range txs[1:] {
			_, err := d.Add(t.Issuer, t.Round, t.Parents, params(t), t.Meta)
			pr.check(err, "replaying the live DAG")
		}
	}
	if !timeAdds {
		add()
		return d, 0
	}
	took := pr.tr.timed("dag.add", "dag", 0, add)
	return d, us(took) / float64(max(len(txs)-1, 1))
}

func (pr *prober) probeDAG(o *outcome, in endInputs) {
	live := in.live
	o.set("dag.sample_at_depth_us", mathx.Mean(pr.sampleUS))
	o.set("dag.depths_us", mathx.Mean(pr.depthsUS))
	o.set("dag.children_ns_per_call", mathx.Mean(pr.childrenNS))
	o.set("dag.tips_us_per_call", mathx.Mean(pr.tipsUS))
	o.set("dag.tips_mean", mathx.Mean(pr.tipCounts))
	o.set("dag.live_txs", float64(live.Size()-int(live.LiveFloor())))
	frozen, spilled := 0, int64(0)
	for _, e := range live.FrozenEpochs() {
		frozen += e.Txs
		spilled += e.SpillBytes
	}
	o.set("dag.frozen_txs", float64(frozen))
	o.set("dag.spill_mb", float64(spilled)/mb)

	plain, addUS := pr.replica(live, true)
	o.set("dag.add_us_per_tx", addUS)
	o.set("dag.cumweights_ms_cold", ms(pr.tr.timed("dag.cumulative_weights_cold", "dag", 0, func() {
		sink += len(plain.CumulativeWeights())
	})))
	o.set("dag.cumweights_us_cached", pr.perOp("dag.cumulative_weights_cached", "dag", probeBudget/4, func() {
		sink += len(plain.CumulativeWeights())
	})/1e3)

	// Compaction: freeze everything the guard allows in one CompactTo, once
	// without a spill directory (the freeze itself) and once with (freeze
	// plus spill write). Eight epochs over the run's Round range.
	lastRound := live.MustGet(dag.ID(live.Size() - 1)).Round
	comp := dag.Compaction{Width: max(1, (lastRound+1)/8), Live: 2, GuardDepth: pr.depthMax, GuardDepthMin: pr.depthMin}
	compact := func(d *dag.DAG, c dag.Compaction, name string) (time.Duration, []dag.EpochSummary) {
		pr.check(d.SetCompaction(c), "configuring compaction on the replica")
		took := pr.tr.timed(name, "dag", 0, func() {
			_, err := d.CompactTo(lastRound)
			pr.check(err, "compacting the replica")
		})
		return took, d.FrozenEpochs()
	}
	took, epochs := compact(plain, comp, "dag.compact_to")
	o.set("dag.compact_ms_per_freeze", ms(took)/float64(max(len(epochs), 1)))

	spilling, _ := pr.replica(live, false)
	comp.SpillDir = filepath.Join(pr.p.tmp, "probe-spill")
	took, epochs = compact(spilling, comp, "dag.compact_to_spill")
	var bytesOut int64
	var frozenIDs []dag.ID
	for _, e := range epochs {
		bytesOut += e.SpillBytes
		if e.Txs > 0 {
			frozenIDs = append(frozenIDs, e.FirstID, e.LastID)
		}
	}
	o.set("dag.spill_write_mb_per_s", float64(bytesOut)/mb/took.Seconds())
	reload := 0.0
	if len(frozenIDs) > 0 {
		i := 0
		reload = pr.perOp("dag.params_of", "dag", probeBudget, func() {
			p, err := spilling.ParamsOf(frozenIDs[i%len(frozenIDs)])
			pr.check(err, "reloading spilled params")
			sink += len(p)
			i++
		}) / 1e3
	}
	o.set("dag.spill_reload_us_per_tx", reload)

	var buf bytes.Buffer
	took = pr.tr.timed("dag.write_to", "dag", 0, func() {
		_, err := live.WriteTo(&buf)
		pr.check(err, "encoding the live DAG")
	})
	size := float64(buf.Len()) / mb
	o.set("dag.encode_mb_per_s", size/took.Seconds())
	took = pr.tr.timed("dag.read_dag", "dag", 0, func() {
		d, err := dag.ReadDAG(bytes.NewReader(buf.Bytes()))
		if pr.check(err, "decoding the live DAG") {
			sink += d.Size()
		}
	})
	o.set("dag.decode_mb_per_s", size/took.Seconds())
}

func (pr *prober) probeCheckpoint(o *outcome, in endInputs) (mbPerS float64) {
	var n int64
	perCall := pr.perOp("core.write_checkpoint", "core", 2*probeBudget, func() {
		var err error
		n, err = in.snap.WriteCheckpoint(io.Discard)
		pr.check(err, "writing a checkpoint")
	})
	mbPerS = float64(n) / mb / (perCall / 1e9)
	o.set("core.checkpoint_write_mb_per_s", mbPerS)
	o.set("core.checkpoint_bytes_per_live_tx", float64(n)/float64(max(in.live.Size()-int(in.live.LiveFloor()), 1)))
	return mbPerS
}

// nopEngine completes units that do nothing: what is left is the loop.
type nopEngine struct {
	left int
	res  engine.StepResult
}

func (e *nopEngine) Name() string { return "nop" }

func (e *nopEngine) Step(context.Context) (*engine.StepResult, bool, error) {
	if e.left == 0 {
		return nil, true, nil
	}
	e.left--
	return &e.res, false, nil
}

// probeEngine times the run loop, the scheduler and the fan-out primitive
// with nothing inside them.
func (pr *prober) probeEngine(o *outcome) {
	ctx := context.Background()
	const units = 200_000
	seen := 0
	took := pr.tr.timed("engine.run", "engine", 0, func() {
		hook := engine.WithHooks(engine.Hooks{OnRound: func(engine.RoundEvent) { seen++ }})
		_, err := engine.Run(ctx, &nopEngine{left: units}, hook)
		pr.check(err, "running the no-op engine")
	})
	o.set("engine.run_overhead_ns_per_unit", float64(took)/units)

	const jobs, perJob = 8, 20_000
	sched := engine.NewScheduler(engine.SchedulerConfig{Pool: par.NewBudget(pr.p.nproc)})
	for j := 0; j < jobs; j++ {
		_, err := sched.Submit(engine.Job{Engine: &nopEngine{left: perJob}})
		pr.check(err, "submitting a no-op job")
	}
	took = pr.tr.timed("engine.scheduler_drain", "engine", 0, func() {
		pr.check(sched.Drain(ctx), "draining the scheduler")
	})
	stats := sched.Stats()
	o.set("engine.sched_dispatch_ns_per_unit", float64(took)/(jobs*perJob))
	o.set("engine.sched_steals", float64(stats.Steals))
	o.set("engine.sched_dispatches", float64(stats.Dispatches))

	const items = 16
	budget := par.NewBudget(pr.p.nproc)
	o.set("par.foreach_ns_per_item", pr.perOp("par.for_each_in", "par", probeBudget, func() {
		par.ForEachIn(budget, pr.p.nproc, items, func(int) {})
	})/items)
}

// drainFrames reads back the frames the traced run appended to the prober's
// own broadcaster.
func (pr *prober) drainFrames() []wire.Frame {
	pr.frames.Close()
	sub := pr.frames.Subscribe(pr.frames.Earliest())
	var frames []wire.Frame
	for {
		f, err := sub.Next(context.Background())
		if err != nil {
			return frames
		}
		frames = append(frames, f)
	}
}

func (pr *prober) probeWire(o *outcome, frames []wire.Frame) {
	n := float64(max(len(frames), 1))
	took := pr.tr.timed("wire.encode_frame", "wire", 0, func() {
		for i := range frames {
			b, err := wire.EncodeFrame(&frames[i])
			pr.check(err, "encoding a frame")
			sink += len(b)
		}
	})
	o.set("wire.encode_ns_per_frame", float64(took)/n)

	var stream bytes.Buffer
	w, err := wire.NewWriter(&stream)
	if !pr.check(err, "opening a frame stream") {
		return
	}
	for i := range frames {
		pr.check(w.WriteFrame(&frames[i]), "writing a frame")
	}
	o.set("wire.bytes_per_frame", float64(stream.Len())/n)
	took = pr.tr.timed("wire.read_frame", "wire", 0, func() {
		r, err := wire.NewReader(bytes.NewReader(stream.Bytes()))
		if !pr.check(err, "reading a frame stream") {
			return
		}
		for {
			if _, err := r.ReadFrame(); err != nil {
				if !errors.Is(err, io.EOF) {
					pr.check(err, "decoding a frame")
				}
				return
			}
		}
	})
	o.set("wire.decode_ns_per_frame", float64(took)/n)
}

// probeServe times a broadcaster the prober owns: the append side with no
// and with two subscribers, the read side, and replay from the spill file.
func (pr *prober) probeServe(o *outcome, frames []wire.Frame) {
	tmp := pr.p.tmp
	if len(frames) == 0 {
		pr.check(errors.New("the traced run produced no frames"), "serve")
		return
	}
	const appends = 50_000
	fill := func(b *serve.Broadcaster, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			b.Append(frames[i%len(frames)])
		}
		return time.Since(start)
	}

	alone := serve.NewBroadcaster(0, 0)
	var took time.Duration
	pr.tr.timed("serve.append", "serve", 0, func() { took = fill(alone, appends) })
	o.set("serve.append_ns_per_frame", float64(took)/appends)

	n := min(appends, serve.DefaultRingSize)
	sub := alone.Subscribe(alone.Earliest())
	took = pr.tr.timed("serve.next", "serve", 0, func() {
		for i := 0; i < n; i++ {
			_, err := sub.Next(context.Background())
			pr.check(err, "reading the ring")
		}
	})
	o.set("serve.next_ns_per_frame", float64(took)/float64(n))

	followed := serve.NewBroadcaster(0, 0)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		sub := followed.Subscribe(0)
		wg.Add(1)
		// Subscribers block in Next on their own goroutines, as HTTP handlers do.
		//speclint:allow budget two probe subscribers, joined below once the broadcaster closes
		go func() {
			defer wg.Done()
			for {
				_, err := sub.Next(context.Background())
				var gap *serve.GapError
				switch {
				case errors.As(err, &gap):
					sub.Resync()
				case err != nil:
					return
				}
			}
		}()
	}
	pr.tr.timed("serve.append_2sub", "serve", 0, func() { took = fill(followed, appends) })
	followed.Close()
	wg.Wait()
	o.set("serve.append_2sub_ns_per_frame", float64(took)/appends)

	const ring, spilled = 256, 20_000
	lapped := serve.NewBroadcaster(ring, 0)
	path := filepath.Join(tmp, "probe-replay.sde")
	if !pr.check(lapped.EnableSpill(path), "enabling spill") {
		return
	}
	fill(lapped, spilled)
	lapped.Close()
	replayed := 0
	took = pr.tr.timed("serve.replay_gap", "serve", 0, func() {
		ok, err := lapped.ReplayGap(0, spilled-ring, func(*wire.Frame) error { replayed++; return nil })
		if !ok || err != nil || replayed != spilled-ring {
			pr.check(fmt.Errorf("replayed %d of %d frames (covered=%v): %v", replayed, spilled-ring, ok, err), "replaying the spill file")
		}
	})
	st, err := os.Stat(path)
	if !pr.check(err, "sizing the spill file") {
		return
	}
	o.set("serve.spill_replay_mb_per_s", float64(st.Size())*float64(spilled-ring)/spilled/mb/took.Seconds())

	submitMS, flushes := probeDaemon(pr.tr, tmp)
	o.set("serve.submit_ms", submitMS)
	o.set("serve.http_flushes_per_frame", flushes)
}
