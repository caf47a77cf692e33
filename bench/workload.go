package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/xrand"
)

// params is what one run of one workload is given. The seed is the only
// source of variation: the engines receive the federation and configuration
// generated from it and nothing else.
type params struct {
	workload string
	seed     int64
	seconds  float64
	scale    string
	trace    bool
	nproc    int
	root     string // repository root: BENCHMARK.json's directory
	tmp      string // scratch directory under bench/out, removed after the run
}

// outDir is where trace files and the ledger document go. It is git-ignored.
func (p params) outDir() string { return filepath.Join(p.root, "bench", "out") }

// sizes fixes the scenario each workload runs and how often. A run is made of
// replicates: the same scenario on inputs generated from sub-seeds of the
// run's seed, each on a fresh engine or daemon. Every metric of a run is the
// median over its replicates, which steadies it twice over — against the
// machine, whose speed comes and goes in bursts of seconds, and against the
// seed, on which the growth of the tangle (and so the work) depends.
// Replicates are added until -seconds have passed, at least minReps of them.
type sizes struct {
	clientsPerRound int
	walkRounds      int
	trainRounds     int

	asyncRamp    int // events, at most, a long-haul engine is stepped untimed until its first epoch freezes
	asyncSegment int // events of the timed segment that follows
	asyncTail    int // events the uninterrupted and the resumed engine both run after the checkpoint
	asyncWidth   int // epoch width in simulated seconds

	serveDuration float64 // simulated seconds of each hosted async run
	serveWidth    int
	serveProbes   int
	serveReplay   time.Duration

	minReps     int
	traceReps   int // replicates of a traced run: each an untraced and a traced pass
	shortReps   int // checkpoint writes and resumes timed per replicate; their median is the replicate's value
	paramsReads int
}

func sizesFor(scale string) (sizes, error) {
	switch scale {
	case "smoke":
		return sizes{
			clientsPerRound: 4, walkRounds: 12, trainRounds: 2,
			asyncRamp: 400, asyncSegment: 100, asyncTail: 50, asyncWidth: 1,
			serveDuration: 3, serveWidth: 1, serveProbes: 4, serveReplay: 50 * time.Millisecond,
			minReps: 1, traceReps: 1, shortReps: 1, paramsReads: 16,
		}, nil
	case "", "default":
		// A replicate lasts between one and two seconds on two cores, so a
		// run of run_seconds holds a dozen or more.
		return sizes{
			clientsPerRound: 10, walkRounds: 250, trainRounds: 6,
			asyncRamp: 1500, asyncSegment: 1000, asyncTail: 150, asyncWidth: 5,
			serveDuration: 12, serveWidth: 2, serveProbes: 32, serveReplay: 200 * time.Millisecond,
			minReps: 3, traceReps: 3, shortReps: 1, paramsReads: 64,
		}, nil
	case "full":
		// The scenarios of the sizing pass behind the issue: paper-scale
		// rounds, a long haul with epochs of 30 simulated seconds in segments
		// of 5 000 events, 70 simulated seconds hosted.
		return sizes{
			clientsPerRound: 10, walkRounds: 1000, trainRounds: 100,
			asyncRamp: 30000, asyncSegment: 5000, asyncTail: 3000, asyncWidth: 30,
			serveDuration: 70, serveWidth: 10, serveProbes: 128, serveReplay: 5 * time.Second,
			minReps: 1, traceReps: 1, shortReps: 5, paramsReads: 256,
		}, nil
	}
	return sizes{}, fmt.Errorf("bench: unknown -scale %q (default | full | smoke)", scale)
}

// subSeed derives the seed of replicate r from the run's seed.
func subSeed(seed int64, r int) int64 {
	return xrand.New(seed).SplitIndex("bench-replicate", r).Seed()
}

// replicates calls run with replicate numbers 0, 1, … and the sub-seed of
// each, until the run's measuring time is used up, and at least minReps times.
//
// The reference work (machine.go) is timed before and after every replicate,
// and the timings the replicate sampled are put in terms of the reference
// machine: durations divided, rates multiplied, by the machine factor.
//
// peak_rss_mb is the resident-set high-water mark of one replicate: before
// each, the heap's free pages go back to the OS and the mark is reset to what
// is resident then, so every replicate starts the way the first does in a
// fresh process. Where the mark cannot be reset only the first replicate is
// read: at the end of the run the mark would be the maximum over a dozen
// seeds, and one of them in fifteen (see longHaul) doubles it.
func replicates(p params, minReps int, o *outcome, run func(r int, seed int64) error) error {
	const maxReps = 256
	budget := time.Duration(p.seconds * float64(time.Second))
	before := referenceMS(p.nproc)
	start := time.Now()
	for r := 0; r < minReps || (time.Since(start) < budget && r < maxReps); r++ {
		debug.FreeOSMemory() // the previous replicate's garbage is not this one's live heap, nor its pages this one's resident set
		fresh := r == 0 || resetPeakRSS()
		sampled := o.sampled()
		if err := run(r, subSeed(p.seed, r)); err != nil {
			return err
		}
		if fresh {
			o.sample("peak_rss_mb", peakRSSMB())
		}
		after := referenceMS(p.nproc)
		factor := (before + after) / 2 / referenceNominalMS
		o.rescale(sampled, factor)
		o.sample("machine_factor", factor)
		before = after
	}
	return nil
}

// outcome is what a workload hands back: metric values by name, the
// operations it counted, and the digests its correctness checks compared.
type outcome struct {
	metrics map[string]float64
	samples map[string][]float64 // values from every replicate; reduce takes the medians
	steps   [][]float64          // unit latencies in ms, replicate by replicate
	tailPct int
	digests map[string]string
	ops     ops
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string][]float64{}, digests: map[string]string{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// sample adds one replicate's value of a metric.
func (o *outcome) sample(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// sampleSteps adds one replicate's unit latencies.
func (o *outcome) sampleSteps(stepMS []float64) { o.steps = append(o.steps, stepMS) }

// sampled counts the samples taken so far, metric by metric; "" counts the
// replicates that sampled unit latencies.
func (o *outcome) sampled() map[string]int {
	n := map[string]int{"": len(o.steps)}
	for name, vs := range o.samples {
		n[name] = len(vs)
	}
	return n
}

// rescale puts every timing sampled since the count was taken in terms of the
// reference machine (see scaled): the clock's durations over factor, its rates
// times factor.
func (o *outcome) rescale(since map[string]int, factor float64) {
	for _, steps := range o.steps[since[""]:] {
		for i := range steps {
			steps[i] /= factor
		}
	}
	for _, m := range endToEnd {
		vs := o.samples[m.Name]
		for i := since[m.Name]; i < len(vs); i++ {
			switch scaled(m.Unit) {
			case 1:
				vs[i] /= factor
			case -1:
				vs[i] *= factor
			}
		}
	}
}

// reduce turns the replicates' samples into the run's metrics: the median of
// each. The tail of the unit latencies is read at the percentile the run's
// whole sample allows (tailPercentile), replicate by replicate, and the
// median of those is reported: a burst of the machine that slows one
// replicate moves a tail pooled over all of them, and leaves this one alone.
func (o *outcome) reduce() {
	units := 0
	for _, steps := range o.steps {
		units += len(steps)
	}
	if units > 0 {
		o.tailPct = tailPercentile(units)
		for _, steps := range o.steps {
			o.sample("step_p50_ms", median(steps))
			o.sample("step_tail_ms", percentile(steps, o.tailPct))
		}
		o.steps = nil
	}
	for name, vs := range o.samples {
		o.set(name, median(vs))
	}
}

// unitHook runs at a unit boundary — the engines' documented quiescent point.
type unitHook func(unit int, res *engine.StepResult, stepSpan int)

// drive steps the engine limit units further, or to its end when limit is 0
// or the end comes first (done), with one root span per unit when traced. It
// returns each Step's duration and the wall of the whole loop, hooks included.
func drive(e engine.Engine, limit int, tr *tracer, hook unitHook) (steps []time.Duration, wall time.Duration, done bool, err error) {
	ctx := context.Background()
	start := time.Now()
	for unit := 0; limit == 0 || unit < limit; unit++ {
		id := tr.begin("core.step", "core", 0)
		t0 := time.Now()
		res, ended, err := e.Step(ctx)
		d := time.Since(t0)
		if err != nil {
			return steps, 0, false, fmt.Errorf("step %d of %s: %w", unit, e.Name(), err)
		}
		if ended {
			tr.drop(id)
			done = true
			break
		}
		tr.end(id)
		steps = append(steps, d)
		if hook != nil {
			hook(unit, res, id)
		}
	}
	return steps, time.Since(start), done, nil
}

// snapshotter is the checkpoint side both engines share.
type snapshotter interface {
	WriteCheckpoint(w io.Writer) (int64, error)
}

// measureCheckpoint times reps checkpoints into io.Discard — the stall a
// cadence checkpoint or a SIGTERM imposes on the run — then takes one into
// memory, whose size is exact. The median of the timings is the replicate's
// checkpoint_write_ms (the first writes after a collection were seen to take
// twice as long as the next); each write is one operation.
func measureCheckpoint(s snapshotter, reps int, o *outcome) (blob []byte) {
	runtime.GC() // start from a collected heap, so a cycle is less likely to land inside a write
	var n int64
	var took []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		n, err = s.WriteCheckpoint(io.Discard)
		took = append(took, ms(time.Since(t0)))
		o.ops.try(err, "writing checkpoint")
	}
	o.sample("checkpoint_write_ms", median(took))
	var buf bytes.Buffer
	buf.Grow(int(n)) // no regrowth garbage: peak_rss_mb should see the checkpoint, not the buffer's doubling
	_, err := s.WriteCheckpoint(&buf)
	o.ops.try(err, "writing checkpoint")
	return buf.Bytes()
}

// measureResume times reps resumes from the same checkpoint bytes — their
// median is the replicate's resume_ms — and returns the last engine. Each
// resume is one operation.
func measureResume[E any](reps int, o *outcome, resume func() (E, error)) (last E) {
	runtime.GC()
	var took []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := resume()
		took = append(took, ms(time.Since(t0)))
		if o.ops.try(err, "resuming from checkpoint") {
			last = e
		}
	}
	o.sample("resume_ms", median(took))
	return last
}

// liveHeapMB is HeapAlloc after a collection with keep still referenced.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

const mb = 1 << 20

// digest hashes what write produces.
func digest(write func(w io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gobDigest hashes the gob encoding of v; floats enter bit for bit.
func gobDigest(v any) (string, error) {
	return digest(func(w io.Writer) error { return gob.NewEncoder(w).Encode(v) })
}

// scratchDir makes a fresh directory under the run's scratch space.
func (p params) scratchDir(name string) (string, error) {
	return os.MkdirTemp(p.tmp, name+"-")
}
