package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/wire"
)

// daemon is an in-process specdagd: a serve.Server with the default
// checkpoint cadence, ring and quantum behind a loopback HTTP listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startDaemon returns once the daemon has answered its first request.
func startDaemon(spillDir string) (*daemon, error) {
	srv := serve.NewServer(serve.Config{SpillDir: spillDir})
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	resp, err := d.ts.Client().Get(d.ts.URL + "/healthz")
	if err != nil {
		return d, err
	}
	resp.Body.Close()
	return d, nil
}

// stop shuts the server down and closes the listener. It is one operation.
func (d *daemon) stop(o *ops) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	o.try(d.srv.Shutdown(ctx), "shutting the daemon down")
	d.ts.Close()
}

// submit posts a run request and returns the run's ID and the round trip.
func (d *daemon) submit(req serve.RunRequest) (id int, took time.Duration, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := d.ts.Client().Post(d.ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st serve.RunStatus
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("POST /runs answered %s: %s", resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("decoding the run status: %w", err)
	}
	return st.ID, time.Since(t0), nil
}

// follow subscribes to a run from index 0 and returns once its End frame
// arrived. Reconnection is off: on loopback a dropped stream is a failure.
func (d *daemon) follow(id int, onFrame func(wire.Frame)) (*wire.End, error) {
	return serve.Subscribe(context.Background(), d.ts.URL, id, serve.SubscribeOptions{
		OnFrame:    onFrame,
		Reconnects: -1,
		Client:     d.ts.Client(),
	})
}

// statuses fetches GET /runs.
func (d *daemon) statuses() ([]serve.RunStatus, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/runs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sts []serve.RunStatus
	return sts, json.NewDecoder(resp.Body).Decode(&sts)
}

// checkpoint downloads a run's latest checkpoint and the engine step it was
// taken at.
func (d *daemon) checkpoint(id int) (blob []byte, err error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/runs/" + strconv.Itoa(id) + "/checkpoint")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET checkpoint of run %d answered %s", id, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// livePriorities are the scheduler priorities of the four hosted runs.
var livePriorities = [4]int{0, 1, 2, 0}

// liveRequest is the i-th hosted run of the live phase: an async FMNIST run
// at quick scale with a depth-banded walk and compaction on. Every field the
// server would default is spelled out, so twinConfig can mirror it.
func liveRequest(seed int64, sz sizes, i int) serve.RunRequest {
	return serve.RunRequest{
		Dataset: "fmnist", Preset: "quick", Seed: seed + int64(i),
		Selector: "accuracy", Alpha: 10, Norm: "standard", DepthMin: 15, DepthMax: 25,
		Async: true, Duration: sz.serveDuration, MinCycle: 0.5, MaxCycle: 2, NetDelay: 0.5,
		Priority: livePriorities[i], CompactWidth: sz.serveWidth, CompactLive: 2,
		Label: fmt.Sprintf("live-%d", i),
	}
}

// twinConfig is the engine configuration the server builds for req — what
// `specdag -resume` would need to continue a downloaded checkpoint.
// ResumeAsyncSimulation rejects a checkpoint whose seed, timing or compaction
// differ, so a drift between this and the server fails the resume check.
func twinConfig(req serve.RunRequest, workers int, pool *par.Budget) (sim.Spec, core.AsyncConfig) {
	spec := sim.FMNISTSpec(sim.Quick, req.Seed)
	spec.Selector = tipselect.AccuracyWalk{Alpha: req.Alpha, DepthMin: req.DepthMin, DepthMax: req.DepthMax}
	return spec, core.AsyncConfig{
		Duration: req.Duration, MinCycle: req.MinCycle, MaxCycle: req.MaxCycle, NetworkDelay: req.NetDelay,
		Local: spec.Local, Arch: spec.Arch, Selector: spec.Selector,
		Workers: workers, Pool: pool, Seed: req.Seed,
		Compaction: dag.Compaction{Width: req.CompactWidth, Live: req.CompactLive},
	}
}

// liveResult is what the live phase observed.
type liveResult struct {
	d          *daemon
	started    time.Duration // server and listener start
	gaps       int
	digests    []string
	reqs       []serve.RunRequest
	ids        []int
	streams    [][]wire.Frame // every run's whole stream; the first two were received live
	wall       time.Duration
	cpu        time.Duration
	liveFrames int
	steps      int
}

// livePhase submits the four hosted runs, follows the first two live on two
// connections, and waits until all four have ended. The wall runs from the
// first POST to the last End frame.
func (d *daemon) livePhase(seed int64, sz sizes, o *ops, tr *tracer) liveResult {
	res := liveResult{streams: make([][]wire.Frame, len(livePriorities))}
	cpu0 := cpuTime()
	start := time.Now()
	for i := range livePriorities {
		req := liveRequest(seed, sz, i)
		span := tr.begin("serve.submit", "serve", 0)
		id, _, err := d.submit(req)
		tr.end(span)
		o.try(err, "submitting a live run")
		res.reqs, res.ids = append(res.reqs, req), append(res.ids, id)
	}
	ends := make([]*wire.End, len(res.ids))
	errs := make([]error, len(res.ids))
	lastEnd := make([]time.Time, len(res.ids))
	followRun := func(i int) {
		span := tr.begin("serve.subscribe", "serve", 0)
		ends[i], errs[i] = d.follow(res.ids[i], func(f wire.Frame) { res.streams[i] = append(res.streams[i], f) })
		lastEnd[i] = time.Now()
		tr.end(span)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		// Two live subscribers, each blocking on its own connection.
		//speclint:allow budget subscriber goroutines of the live phase, joined right below
		go func() {
			defer wg.Done()
			followRun(i)
		}()
	}
	wg.Wait()
	res.liveFrames = len(res.streams[0]) + len(res.streams[1])
	// The other two are followed to their End frames one after the other:
	// their streams replay from the ring, then block until the run is over.
	followRun(2)
	followRun(3)
	for i, end := range ends {
		if o.try(errs[i], "following a live run") {
			o.check(end.Completed, "run %d ended without completing: %s", res.ids[i], end.Err)
			res.steps += end.Steps
		}
		if lastEnd[i].Sub(start) > res.wall {
			res.wall = lastEnd[i].Sub(start)
		}
	}
	res.cpu = cpuTime() - cpu0
	return res
}

// liveRun starts a daemon (timed: the set-up of this workload), runs the live
// phase on it and checks its streams. The caller stops the daemon.
func liveRun(p params, seed int64, sz sizes, o *outcome, tr *tracer) (liveResult, error) {
	dir, err := p.scratchDir("events")
	if err != nil {
		return liveResult{}, err
	}
	t0 := time.Now()
	d, err := startDaemon(dir)
	started := time.Since(t0)
	if !o.ops.try(err, "starting the daemon") {
		return liveResult{d: d}, nil
	}
	live := d.livePhase(seed, sz, &o.ops, tr)
	live.d, live.started = d, started
	live.gaps = d.checkStreams(&o.ops, live)
	o.ops.did(live.steps)
	for i, frames := range live.streams {
		sum, err := streamDigest(frames)
		if err != nil {
			return live, err
		}
		live.digests = append(live.digests, sum)
		o.digests[fmt.Sprintf("stream.%d", i)] = sum
	}
	return live, nil
}

// frameBytes is the byte form frames are compared by: the frame's standalone
// wire encoding. A Start frame carries a map, which gob writes in iteration
// order, so it is compared by its JSON form (keys sorted) instead.
func frameBytes(f *wire.Frame) ([]byte, error) {
	if f.Kind == wire.KindStart {
		return json.Marshal(f)
	}
	return wire.EncodeFrame(f)
}

// streamDigest hashes a stream frame by frame. One undecodable frame poisons
// the digest.
func streamDigest(frames []wire.Frame) (string, error) {
	return digest(func(w io.Writer) error {
		for i := range frames {
			b, err := frameBytes(&frames[i])
			if err != nil {
				return err
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		return nil
	})
}

// checkStreams holds the live phase's streams against the guarantees of the
// serving layer: contiguous indices from 0, no Gap frame (spill is on), and
// every run reported done.
func (d *daemon) checkStreams(o *ops, live liveResult) (gaps int) {
	for r, frames := range live.streams {
		contiguous := len(frames) > 0
		for i, f := range frames {
			contiguous = contiguous && f.Index == uint64(i)
			if f.Kind == wire.KindGap {
				gaps++
			}
		}
		o.check(contiguous, "stream of run %d is not contiguous from index 0", live.ids[r])
	}
	o.check(gaps == 0, "%d Gap frames although spill is on", gaps)
	sts, err := d.statuses()
	if o.try(err, "listing runs") {
		for _, st := range sts {
			o.check(st.State == serve.StateDone, "run %d ended %s: %s", st.ID, st.State, st.Err)
		}
	}
	return gaps
}

// finalAccuracy is the mean over a stream's clients of the accuracy of their
// last activation — the async engine's FinalAcc, read off the wire.
func finalAccuracy(frames []wire.Frame) float64 {
	last := map[int]float64{}
	for _, f := range frames {
		if f.Kind != wire.KindRound {
			continue
		}
		if ev, ok := f.Round.Detail.(*core.AsyncEvent); ok {
			last[ev.Client] = ev.TrainedAcc
		}
	}
	sum := 0.0
	for _, acc := range last {
		sum += acc
	}
	return sum / float64(max(len(last), 1))
}

// probeRun submits one one-round FMNIST run to an idle daemon and follows it:
// the latency a user of specdagd waits for a first result and for the end.
func (d *daemon) probeRun(seed int64, o *ops) (firstFrame, end time.Duration) {
	req := serve.RunRequest{Dataset: "fmnist", Preset: "quick", Seed: seed, Rounds: 1, Label: "probe"}
	t0 := time.Now()
	id, _, err := d.submit(req)
	if !o.try(err, "submitting a probe run") {
		return 0, 0
	}
	e, err := d.follow(id, func(f wire.Frame) {
		if f.Kind == wire.KindRound && firstFrame == 0 {
			firstFrame = time.Since(t0)
		}
	})
	end = time.Since(t0)
	if o.try(err, "following a probe run") {
		o.check(e.Completed && firstFrame > 0, "probe run %d: completed=%v, first frame after %v", id, e.Completed, firstFrame)
	}
	return firstFrame, end
}

// countingReader counts the reads that returned data: on a stream the server
// flushes frame by frame, one read is at most what one flush delivered.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.reads++
	}
	return n, err
}

// replayReads fetches a finished stream once and returns its frame count and
// the number of reads the response body took.
func (d *daemon) replayReads(id int) (frames, reads int, err error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/runs/" + strconv.Itoa(id) + "/events?from=0")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body := &countingReader{r: resp.Body}
	r, err := wire.NewReader(body)
	if err != nil {
		return 0, 0, err
	}
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return frames, body.reads, err
		}
		frames++
		if f.Kind == wire.KindEnd {
			return frames, body.reads, nil
		}
	}
}

// probeDaemon measures the daemon's fixed costs on a server of its own: the
// POST /runs round trip of a small run, and how many reads a replayed stream
// takes per frame. Every traced run reports it, so the serving layer's floor
// is on record next to each workload.
func probeDaemon(tr *tracer, tmp string) (submitMS, flushesPerFrame float64) {
	var o ops
	d, err := startDaemon(tmp)
	defer d.stop(&o)
	if err != nil {
		return 0, 0
	}
	var submits []float64
	var last int
	for i := 0; i < 8; i++ {
		span := tr.begin("serve.submit", "serve", 0)
		id, took, err := d.submit(serve.RunRequest{Dataset: "fmnist", Preset: "quick", Seed: int64(i), Rounds: 2, ClientsPerRound: 2})
		tr.end(span)
		if !o.try(err, "submitting") {
			continue
		}
		if _, err := d.follow(id, nil); err != nil {
			continue
		}
		submits = append(submits, ms(took))
		last = id
	}
	// A longer stream for the read count: a few frames would fit one read.
	if id, _, err := d.submit(serve.RunRequest{Dataset: "fmnist", Preset: "quick", Seed: 8, Rounds: 40, ClientsPerRound: 2}); o.try(err, "submitting") {
		if _, err := d.follow(id, nil); err == nil {
			last = id
		}
	}
	span := tr.begin("serve.replay", "serve", 0)
	frames, reads, err := d.replayReads(last)
	tr.end(span)
	if err != nil || frames == 0 {
		return median(submits), 0
	}
	return median(submits), float64(reads) / float64(frames)
}

// runServe runs serve-multiplex: the only workload with the scheduler, budget
// multiplexing, periodic checkpoints, the wire codec, the broadcaster's ring
// and spill, and per-frame HTTP flushes on its path. Every replicate starts a
// daemon of its own and takes it through four phases.
//
// Live phase: four async runs share the daemon's budget while two connections
// follow two of them. Probe phase: one-round runs, one at a time, on the now
// idle daemon. Replay phase: the finished streams fetched again and again over
// one connection — serve and wire with no engine behind them. Checkpoint
// phase: the runs' last cadence checkpoints are downloaded and one is resumed
// in-process, the way `specdag -resume` would.
func runServe(p params, sz sizes, o *outcome) error {
	if p.trace {
		return traceServe(p, sz, o)
	}
	return replicates(p, sz.minReps, o, func(r int, seed int64) error {
		// The start of a daemon takes a fraction of a millisecond; four dozen
		// more starts per replicate steady its median.
		var starts []float64
		for i := 0; i < 48; i++ {
			dir, err := p.scratchDir("events")
			if err != nil {
				return err
			}
			t0 := time.Now()
			d, err := startDaemon(dir)
			starts = append(starts, time.Since(t0).Seconds())
			o.ops.try(err, "starting the daemon")
			d.stop(&o.ops)
		}
		live, err := liveRun(p, seed, sz, o, nil)
		if live.d == nil {
			return err
		}
		d := live.d
		defer d.stop(&o.ops)
		if err != nil || live.ids == nil {
			return err
		}
		o.sample("setup_s", median(append(starts, live.started.Seconds())))
		o.sample("wall_s", live.wall.Seconds())
		o.sample("activations_per_s", float64(live.steps)/live.wall.Seconds())
		o.sample("stream_frames_per_s", float64(live.liveFrames)/live.wall.Seconds())
		accs := make([]float64, len(live.streams))
		for i, frames := range live.streams {
			accs[i] = finalAccuracy(frames)
		}
		o.sample("final_acc", mathx.Mean(accs))

		// Probe phase. The unit of the serving workload is one hosted run as
		// its submitter sees it: step_* is POST → End frame of a one-round run.
		var first, whole []float64
		for k := 0; k < sz.serveProbes; k++ {
			firstFrame, end := d.probeRun(seed+int64(k), &o.ops)
			first, whole = append(first, ms(firstFrame)), append(whole, ms(end))
		}
		o.sample("first_frame_ms", median(first))
		o.sampleSteps(whole)

		// Replay phase: one untimed pass proves every replayed stream equal,
		// frame for frame, to what was received live; then the timed passes.
		for i, id := range live.ids {
			var frames []wire.Frame
			_, err := d.follow(id, func(f wire.Frame) { frames = append(frames, f) })
			if o.ops.try(err, "replaying a stream") {
				sum, err := streamDigest(frames)
				o.ops.check(err == nil && sum == live.digests[i], "replayed stream of run %d differs from the live one", id)
			}
		}
		replayed := 0
		start := time.Now()
		for time.Since(start) < sz.serveReplay {
			for _, id := range live.ids {
				_, err := d.follow(id, func(wire.Frame) { replayed++ })
				o.ops.try(err, "replaying a stream")
			}
		}
		o.sample("replay_frames_per_s", float64(replayed)/time.Since(start).Seconds())

		// Checkpoint phase.
		var sizesMB []float64
		var blob []byte
		for i, id := range live.ids {
			b, err := d.checkpoint(id)
			if o.ops.try(err, "downloading a checkpoint") {
				sizesMB = append(sizesMB, float64(len(b))/mb)
				if i == 0 {
					blob = b
				}
			}
		}
		o.sample("checkpoint_mb", mathx.Mean(sizesMB))
		if blob != nil {
			spec, cfg := twinConfig(live.reqs[0], p.nproc, par.NewBudget(p.nproc))
			resumed := measureResume(sz.shortReps, o, func() (*core.AsyncSimulation, error) {
				return core.ResumeAsyncSimulation(spec.Fed, cfg, bytes.NewReader(blob))
			})
			if resumed != nil {
				want := checkpointStep(live.streams[0])
				o.ops.check(resumed.Events() == want, "resumed engine is at event %d, the checkpoint frame says %d", resumed.Events(), want)
				measureCheckpoint(resumed, sz.shortReps, o)
			}
		}
		o.sample("live_heap_end_mb", liveHeapMB(d.srv))
		return nil
	})
}

// checkpointStep is the engine step of a stream's last Checkpoint frame.
func checkpointStep(frames []wire.Frame) int {
	step := 0
	for _, f := range frames {
		if f.Kind == wire.KindCheckpoint {
			step = f.Checkpoint.Step
		}
	}
	return step
}

// traceServe is the traced run of serve-multiplex. Every replicate runs the
// live phase untraced on one daemon and then, with spans around every
// request, on a fresh one; both must stream the same bytes. The layers under
// the daemon are probed on a twin: the first hosted run's engine, built
// in-process from the same request and stepped by the benchmark.
func traceServe(p params, sz sizes, o *outcome) error {
	var traced liveResult
	var tr *tracer
	var overhead []float64
	gaps := 0
	for r := 0; r < sz.traceReps; r++ {
		seed := subSeed(p.seed, r)
		ref, err := liveRun(p, seed, sz, o, nil)
		if ref.d != nil {
			ref.d.stop(&o.ops)
		}
		if err != nil {
			return err
		}
		if traced.d != nil {
			traced.d.stop(&o.ops)
		}
		tr = newTracer(fmt.Sprintf("%s-seed%d", p.workload, p.seed))
		if traced, err = liveRun(p, seed, sz, o, tr); err != nil {
			return err
		}
		for i, sum := range traced.digests {
			o.ops.check(sum == ref.digests[i], "traced stream of live run %d differs from the untraced one", i)
		}
		gaps += ref.gaps + traced.gaps
		overhead = append(overhead, traced.wall.Seconds()/ref.wall.Seconds()-1)
	}
	var ckptFrames, units int
	var ckptBytes int64
	for i, frames := range traced.streams {
		for _, f := range frames {
			switch {
			case f.Kind == wire.KindCheckpoint:
				ckptFrames++
				ckptBytes += f.Checkpoint.Size
			case f.Kind == wire.KindRound && i == 0:
				units++
			}
		}
	}
	poolPeak := traced.d.srv.Pool().Peak()
	traced.d.stop(&o.ops)

	t0 := time.Now()
	spec, cfg := twinConfig(traced.reqs[0], p.nproc, par.NewBudget(p.nproc))
	datasetMS := ms(time.Since(t0))
	twin, err := core.NewAsyncSimulation(spec.Fed, cfg)
	if err != nil {
		return err
	}
	// The twin's spans follow the live phase's in the same trace.
	pr := newProber(p, spec, units, cfg.Seed)
	pr.tr = tr
	cpu0 := cpuTime()
	steps, wall, _, err := drive(twin, 0, tr, pr.hook(twin.DAG()))
	if err != nil {
		return err
	}
	loopCPU := cpuTime() - cpu0
	var cost loopCost
	cost.add(steps, wall)
	o.ops.check(len(steps) == units, "the twin ran %d events, the hosted run %d", len(steps), units)
	return pr.finish(o, endInputs{
		live: twin.DAG(), snap: twin, stepDur: steps, loopCPU: loopCPU,
		poolPeak: poolPeak, datasetMS: datasetMS, wallRatio: median(overhead), cost: cost,
		streamFrames: traced.streams[0],
		// Checkpoints of all four runs against the units of all four; the
		// prober itself counts the units of the twin alone.
		checkpointsPer1k: 1000 * float64(ckptFrames) / float64(max(traced.steps, 1)),
		checkpointBytes:  ckptBytes,
		gapFrames:        gaps,
		busyCPU:          traced.cpu,
	})
}
