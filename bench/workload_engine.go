package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/tipselect"
)

// roundSpec builds the federation of a round workload from a seed.
//
// round-walk is FMNIST-clustered at paper scale with a genesis-anchored
// accuracy walk: walks lengthen with the DAG, so tip selection and the model
// evaluations inside it dominate. round-train is CIFAR-100 at paper scale:
// 5 epochs × 45 batches of local SGD dominate and walks barely register — the
// bypass workload for every walk, cache or DAG change.
func roundSpec(workload string, seed int64) sim.Spec {
	if workload == wRoundTrain {
		return sim.CIFARSpec(sim.Full, seed)
	}
	spec := sim.FMNISTSpec(sim.Full, seed)
	spec.Selector = tipselect.AccuracyWalk{Alpha: 10}
	return spec
}

func roundConfig(spec sim.Spec, rounds, clients, workers int, pool *par.Budget, seed int64) core.Config {
	return core.Config{
		Rounds:          rounds,
		ClientsPerRound: clients,
		Local:           spec.Local,
		Arch:            spec.Arch,
		Selector:        spec.Selector,
		EvalScope:       core.EvalScopeRun,
		Workers:         workers,
		Pool:            pool,
		Seed:            seed,
	}
}

// roundDigests hashes what a round run produced: its per-round results and
// its DAG, byte for byte.
func roundDigests(s *core.Simulation) (results, tangle string, err error) {
	if results, err = gobDigest(s.Results()); err != nil {
		return "", "", err
	}
	tangle, err = digest(func(w io.Writer) error { _, err := s.DAG().WriteTo(w); return err })
	return results, tangle, err
}

// roundScenario is one replicate's inputs: a federation and the seed it and
// the engine's own randomness come from.
type roundScenario struct {
	spec      sim.Spec
	seed      int64
	rounds    int
	clients   int
	generated time.Duration
}

// roundPass is one run of a round scenario from a fresh engine to its end.
type roundPass struct {
	eng   *core.Simulation
	pool  *par.Budget
	built time.Duration // engine construction
	steps []time.Duration
	wall  time.Duration
	cpu   time.Duration
	pr    *prober
}

// pass builds an engine on the scenario and steps it to the end; when pr is
// non-nil the pass is traced and probed.
func (sc roundScenario) pass(workers int, pr *prober, o *ops) (roundPass, error) {
	rp := roundPass{pr: pr}
	if workers > 1 {
		rp.pool = par.NewBudget(workers)
	}
	t0 := time.Now()
	var err error
	if rp.eng, err = core.NewSimulation(sc.spec.Fed, roundConfig(sc.spec, sc.rounds, sc.clients, workers, rp.pool, sc.seed)); err != nil {
		return rp, err
	}
	rp.built = time.Since(t0)
	var tr *tracer
	var hook unitHook
	if pr != nil {
		tr, hook = pr.tr, pr.hook(rp.eng.DAG())
	}
	cpu0 := cpuTime()
	if rp.steps, rp.wall, _, err = drive(rp.eng, 0, tr, hook); err != nil {
		return rp, err
	}
	rp.cpu = cpuTime() - cpu0
	o.did(len(rp.steps))
	o.check(len(rp.steps) == sc.rounds, "ran %d rounds, want %d", len(rp.steps), sc.rounds)
	return rp, nil
}

// sameRounds holds two passes over the same scenario against each other: the
// same bytes, whatever the worker count and whether or not probes ran beside.
func sameRounds(a, b roundPass, o *outcome) error {
	ar, at, err := roundDigests(a.eng)
	if err != nil {
		return err
	}
	br, bt, err := roundDigests(b.eng)
	if err != nil {
		return err
	}
	o.ops.check(ar == br, "Results() of two passes differ: %s vs %s", ar, br)
	o.ops.check(at == bt, "DAG().WriteTo of two passes differs: %s vs %s", at, bt)
	o.digests["results"], o.digests["dag"] = br, bt
	return nil
}

// runRound runs round-walk or round-train.
//
// Untraced, every replicate generates its federation, runs pass B
// (Workers=nproc on one budget), then checkpoints the finished engine and
// resumes it. The first replicate also runs pass A (Workers=1, no pool) on the
// same inputs: both passes must produce the same bytes, and their walls give
// parallel_speedup.
//
// Traced, every replicate runs pass B untraced for reference and then with
// spans and probes; both must produce the same bytes. The end probes run on
// the last replicate's finished state.
func runRound(p params, sz sizes, o *outcome) error {
	generate := func(seed int64) roundScenario {
		sc := roundScenario{seed: seed, rounds: sz.walkRounds, clients: sz.clientsPerRound}
		if p.workload == wRoundTrain {
			sc.rounds = sz.trainRounds
		}
		t0 := time.Now()
		sc.spec = roundSpec(p.workload, seed)
		sc.generated = time.Since(t0)
		return sc
	}

	if p.trace {
		var sc roundScenario
		var last roundPass
		var overhead []float64
		var cost loopCost
		for r := 0; r < sz.traceReps; r++ {
			sc = generate(subSeed(p.seed, r))
			ref, err := sc.pass(p.nproc, nil, &o.ops)
			if err != nil {
				return err
			}
			pr := newProber(p, sc.spec, sc.rounds, sc.seed)
			if last, err = sc.pass(p.nproc, pr, &o.ops); err != nil {
				return err
			}
			if err := sameRounds(ref, last, o); err != nil {
				return err
			}
			overhead = append(overhead, last.wall.Seconds()/ref.wall.Seconds()-1)
			cost.add(last.steps, last.wall)
		}
		return last.pr.finish(o, endInputs{
			live: last.eng.DAG(), snap: last.eng, stepDur: last.steps, loopCPU: last.cpu,
			poolPeak: last.pool.Peak(), datasetMS: ms(sc.generated), wallRatio: median(overhead), cost: cost,
		})
	}

	return replicates(p, sz.minReps, o, func(r int, seed int64) error {
		sc := generate(seed)
		rp, err := sc.pass(p.nproc, nil, &o.ops)
		if err != nil {
			return err
		}
		if r == 0 {
			serial, err := sc.pass(1, nil, &o.ops)
			if err != nil {
				return err
			}
			if err := sameRounds(serial, rp, o); err != nil {
				return err
			}
			o.set("parallel_speedup", serial.wall.Seconds()/rp.wall.Seconds())
		}
		o.sample("setup_s", (sc.generated + rp.built).Seconds())
		o.sample("wall_s", rp.wall.Seconds())
		o.sample("activations_per_s", float64(sc.rounds*sc.clients)/rp.wall.Seconds())
		o.sampleSteps(millis(rp.steps))
		eng := rp.eng
		o.sample("final_acc", eng.Results()[len(eng.Results())-1].MeanTrainedAcc())
		o.sample("live_heap_end_mb", liveHeapMB(eng))

		blob := measureCheckpoint(eng, sz.shortReps, o)
		o.sample("checkpoint_mb", float64(len(blob))/mb)
		resumed := measureResume(sz.shortReps, o, func() (*core.Simulation, error) {
			return core.ResumeSimulation(sc.spec.Fed, roundConfig(sc.spec, sc.rounds, sc.clients, p.nproc, rp.pool, sc.seed), bytes.NewReader(blob))
		})
		if resumed != nil {
			o.ops.check(resumed.Round() == eng.Round() && resumed.DAG().Size() == eng.DAG().Size(),
				"resumed engine is at round %d with %d transactions, want %d and %d",
				resumed.Round(), resumed.DAG().Size(), eng.Round(), eng.DAG().Size())
		}
		return nil
	})
}

// asyncDigests hashes an async run's outcome: the summary Result() gives
// (minus its pointer to the DAG) and the DAG itself.
func asyncDigests(a *core.AsyncSimulation) (result, tangle string, err error) {
	res := a.Result()
	if result, err = gobDigest(struct {
		SimulatedTime float64
		Transactions  int
		Clients       []core.AsyncClientStats
	}{res.SimulatedTime, res.Transactions, res.Clients}); err != nil {
		return "", "", err
	}
	tangle, err = digest(func(w io.Writer) error { _, err := a.DAG().WriteTo(w); return err })
	return result, tangle, err
}

// sameAsync holds two async engines that ran the same scenario to its end
// against each other.
func sameAsync(a, b *core.AsyncSimulation, what string, o *outcome) error {
	ar, at, err := asyncDigests(a)
	if err != nil {
		return err
	}
	br, bt, err := asyncDigests(b)
	if err != nil {
		return err
	}
	o.ops.check(ar == br, "Result() of %s differs: %s vs %s", what, br, ar)
	o.ops.check(at == bt, "DAG().WriteTo of %s differs: %s vs %s", what, bt, at)
	o.digests["result"], o.digests["dag"] = ar, at
	return nil
}

// meanFinalAcc is the mean over clients of the accuracy of their last cycle.
func meanFinalAcc(res *core.AsyncResult) float64 {
	accs := make([]float64, len(res.Clients))
	for i, c := range res.Clients {
		accs[i] = c.FinalAcc
	}
	return mathx.Mean(accs)
}

// asyncScenario is the inputs of async-longhaul.
type asyncScenario struct {
	spec      sim.Spec
	cfg       core.AsyncConfig
	pool      *par.Budget
	generated time.Duration
}

// longHaul generates the long-haul federation and its configuration: the
// preset's own open-ended run (a million events, more than any run of the
// benchmark steps through) with epochs of width simulated seconds spilling to
// dir, and a broadcast delay of 0.1 s instead of the preset's 0.5 s.
//
// The delay decides when compaction begins. The freeze guard keeps everything
// within 25 hops of the tips live; at 0.5 s some thirty tips are open at any
// time, 25 hops behind them are two thousand transactions, the first epoch
// freezes after about 4 000 events — and for some seeds never, because an
// orphaned tip that cannot be proven dead pins the guard (README, first
// ledger rows). At 0.1 s there are about ten tips, the live suffix settles at
// some five hundred transactions, and every seed tried froze its first epoch
// within 2 200 events, most within 1 000: a replicate of a second or two
// spends its timed part in the state an open-ended run spends its life in.
func longHaul(seed int64, width, nproc int, dir string) asyncScenario {
	t0 := time.Now()
	sc := asyncScenario{spec: sim.LongHaulSpec(seed), pool: par.NewBudget(nproc)}
	sc.generated = time.Since(t0)
	sc.cfg = sim.LongHaulAsyncConfig(sim.Full, dir, seed)
	sc.cfg.NetworkDelay = 0.1
	sc.cfg.Compaction = dag.Compaction{Width: width, Live: 2, SpillDir: dir}
	sc.cfg.Workers, sc.cfg.Pool = nproc, sc.pool
	return sc
}

// start builds the scenario's engine and ramps it, untimed, until the first
// epoch has frozen (at most limit events): until then the tangle, and with it
// the cost of an event, still grows.
func (sc asyncScenario) start(limit int, o *ops) (eng *core.AsyncSimulation, built time.Duration, err error) {
	t0 := time.Now()
	if eng, err = core.NewAsyncSimulation(sc.spec.Fed, sc.cfg); err != nil {
		return nil, 0, err
	}
	built = time.Since(t0)
	const stride = 50
	for ramped := 0; ramped < limit && eng.DAG().LiveFloor() == 0; ramped += stride {
		steps, _, done, err := drive(eng, stride, nil, nil)
		if err != nil {
			return nil, 0, err
		}
		o.did(len(steps))
		if done {
			return nil, 0, fmt.Errorf("the long-haul engine ended after %d events, before its first freeze", eng.Events())
		}
	}
	return eng, built, nil
}

// segment steps the engine through one timed segment. The long-haul run never
// reaches its end inside a benchmark run; if it does, that is an error.
func segment(eng *core.AsyncSimulation, events int, tr *tracer, hook unitHook, o *ops) (steps []time.Duration, wall time.Duration, err error) {
	steps, wall, done, err := drive(eng, events, tr, hook)
	if err == nil && done {
		err = fmt.Errorf("the long-haul engine ended after %d events", eng.Events())
	}
	o.did(len(steps))
	return steps, wall, err
}

// runAsync runs async-longhaul: the long-haul federation — a model of ~230
// parameters, so the tangle itself is the cost — stepped event by event with
// epoch compaction spilling to disk. Every replicate ramps a fresh engine
// until compaction has begun, times a segment of events, takes a checkpoint,
// resumes a second engine from it and runs both on: they must end with the
// same bytes.
func runAsync(p params, sz sizes, o *outcome) error {
	scenario := func(seed int64) (asyncScenario, error) {
		dir, err := p.scratchDir("spill")
		if err != nil {
			return asyncScenario{}, err
		}
		return longHaul(seed, sz.asyncWidth, p.nproc, dir), nil
	}
	if p.trace {
		return traceAsync(p, sz, o, scenario)
	}

	return replicates(p, sz.minReps, o, func(r int, seed int64) error {
		sc, err := scenario(seed)
		if err != nil {
			return err
		}
		eng, built, err := sc.start(sz.asyncRamp, &o.ops)
		if err != nil {
			return err
		}
		o.sample("setup_s", (sc.generated + built).Seconds())
		steps, wall, err := segment(eng, sz.asyncSegment, nil, nil, &o.ops)
		if err != nil {
			return err
		}
		o.sample("wall_s", wall.Seconds())
		o.sample("activations_per_s", float64(len(steps))/wall.Seconds())
		o.sampleSteps(millis(steps))
		o.sample("final_acc", meanFinalAcc(eng.Result()))
		o.sample("live_heap_end_mb", liveHeapMB(eng))

		blob := measureCheckpoint(eng, sz.shortReps, o)
		o.sample("checkpoint_mb", float64(len(blob))/mb)
		// Resume needs the spill files of the epochs frozen so far; the engine
		// left them in its directory. Both engines then freeze further epochs
		// into it, one after the other, with the same bytes.
		resumed := measureResume(sz.shortReps, o, func() (*core.AsyncSimulation, error) {
			return core.ResumeAsyncSimulation(sc.spec.Fed, sc.cfg, bytes.NewReader(blob))
		})
		if resumed == nil {
			return nil
		}
		for _, e := range []*core.AsyncSimulation{eng, resumed} {
			if _, _, err := segment(e, sz.asyncTail, nil, nil, &o.ops); err != nil {
				return err
			}
		}
		o.ops.check(resumed.Events() == eng.Events(), "the resumed engine is at event %d, the uninterrupted one at %d", resumed.Events(), eng.Events())
		if err := sameAsync(eng, resumed, "the resumed run", o); err != nil {
			return err
		}

		// The read side of the spill layer: parameter vectors of frozen
		// transactions reloaded from disk (of live ones when nothing froze).
		d := eng.DAG()
		span := int(d.LiveFloor())
		if span < 2 {
			span = d.Size()
		}
		want := sc.spec.Arch.NumParams()
		for i := 0; i < sz.paramsReads; i++ {
			id := dag.ID(1 + i*(span-1)/sz.paramsReads)
			params, err := d.ParamsOf(id)
			o.ops.check(err == nil && len(params) == want, "ParamsOf(%d): %d values, want %d: %v", id, len(params), want, err)
		}
		return nil
	})
}

// traceAsync is the traced run of async-longhaul. In every replicate one
// engine is ramped until compaction has begun and a second resumed from its
// checkpoint; then the first runs the segment untraced and the second the
// same segment with spans and probes. They must end with the same bytes. The
// end probes run on the last replicate's state.
func traceAsync(p params, sz sizes, o *outcome, scenario func(seed int64) (asyncScenario, error)) error {
	var sc asyncScenario
	var eng *core.AsyncSimulation
	var pr *prober
	var steps []time.Duration
	var wall, cpu time.Duration
	var overhead []float64
	var cost loopCost
	for r := 0; r < sz.traceReps; r++ {
		var err error
		if sc, err = scenario(subSeed(p.seed, r)); err != nil {
			return err
		}
		ref, _, err := sc.start(sz.asyncRamp, &o.ops)
		if err != nil {
			return err
		}
		var blob bytes.Buffer
		if _, err := ref.WriteCheckpoint(&blob); err != nil {
			return err
		}
		if eng, err = core.ResumeAsyncSimulation(sc.spec.Fed, sc.cfg, &blob); err != nil {
			return err
		}
		_, refWall, err := segment(ref, sz.asyncSegment, nil, nil, &o.ops)
		if err != nil {
			return err
		}
		pr = newProber(p, sc.spec, sz.asyncSegment, sc.cfg.Seed)
		cpu0 := cpuTime()
		if steps, wall, err = segment(eng, sz.asyncSegment, pr.tr, pr.hook(eng.DAG()), &o.ops); err != nil {
			return err
		}
		cpu = cpuTime() - cpu0
		if err := sameAsync(ref, eng, "the traced run", o); err != nil {
			return err
		}
		overhead = append(overhead, wall.Seconds()/refWall.Seconds()-1)
		cost.add(steps, wall)
	}
	return pr.finish(o, endInputs{
		live: eng.DAG(), snap: eng, stepDur: steps, loopCPU: cpu,
		poolPeak: sc.pool.Peak(), datasetMS: ms(sc.generated), wallRatio: median(overhead), cost: cost,
	})
}
