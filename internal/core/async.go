package core

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// AsyncConfig parameterizes the event-driven simulation of the Specializing
// DAG. The paper introduces discrete rounds only to compare against
// centralized baselines (§5.3.3): "in a distributed implementation, each
// client continuously runs the training process as often as its resources
// permit, independent from all other clients". This simulator models exactly
// that — heterogeneous per-client cycle times and a network propagation
// delay — and demonstrates the no-stragglers property.
type AsyncConfig struct {
	// Duration is the simulated time horizon in seconds.
	Duration float64
	// MinCycle/MaxCycle bound the per-client training cycle time in
	// seconds. Each client draws a fixed cycle time uniformly from this
	// interval, so some clients are persistently slow (stragglers).
	MinCycle float64
	MaxCycle float64
	// NetworkDelay is the simulated broadcast delay in seconds before a
	// published transaction becomes visible to other clients.
	NetworkDelay float64
	// Faults, when enabled, replaces the uniform NetworkDelay with the full
	// deterministic fault schedule of internal/faults: per-link latency and
	// jitter, message drop/duplication, scheduled split-and-heal partitions,
	// stragglers (cycle-time multipliers) and crash/recover churn windows.
	// faults.Scalar(d) is the exact compatibility schedule for NetworkDelay=d
	// (byte-identical results); NetworkDelay must be 0 when Faults is enabled.
	Faults faults.Config
	// Local, Arch, Selector, ReferenceWalks as in Config.
	Local          nn.SGDConfig
	Arch           nn.Arch
	Selector       tipselect.Selector
	ReferenceWalks int
	// Workers bounds how many activations of one lookahead window are
	// computed at once (see the package doc): the activations queued within
	// MinCycle of the one a Step pops are computed together — walks,
	// training, evaluations — those less than the propagation delay apart
	// side by side, and each commits in its own Step in event order,
	// observing the DAG state its timestamp implies. 0 (the default) uses
	// runtime.NumCPU(); 1 computes each window inline. Results are identical
	// for any worker count.
	Workers int
	// Pool, when set, is the shared worker budget the window fan-out draws
	// from (see Config.Pool).
	Pool *par.Budget
	// Compaction, when enabled, freezes epochs of old DAG history out of
	// memory (summaries retained, params optionally spilled to disk) so
	// long-haul runs complete in bounded RSS. Requires the uniform
	// broadcast delay (no fault schedule) and a depth-banded selector;
	// GuardDepth is derived from the selector and need not be set. Results
	// are byte-identical with compaction on or off.
	Compaction dag.Compaction
	// Seed drives all randomness.
	Seed int64
}

// params extracts the parameters the shared engine body consumes.
func (c AsyncConfig) params() params {
	return params{
		local: c.Local, arch: c.Arch, selector: c.Selector, referenceWalks: c.ReferenceWalks,
		faults: c.Faults, compaction: c.Compaction, workers: c.Workers, pool: c.Pool, seed: c.Seed,
	}
}

// Validate reports configuration errors.
func (c AsyncConfig) Validate() error {
	// The checks below are comparisons NaN passes, and an infinite horizon,
	// cycle or delay never ends a run or delivers a publish.
	for _, v := range []struct {
		name string
		val  float64
	}{{"Duration", c.Duration}, {"MinCycle", c.MinCycle}, {"MaxCycle", c.MaxCycle}, {"NetworkDelay", c.NetworkDelay}} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("core: %s must be finite, got %v", v.name, v.val)
		}
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: Duration must be positive, got %v", c.Duration)
	}
	if c.MinCycle <= 0 || c.MaxCycle < c.MinCycle {
		return fmt.Errorf("core: need 0 < MinCycle <= MaxCycle, got [%v, %v]", c.MinCycle, c.MaxCycle)
	}
	if c.NetworkDelay < 0 {
		return fmt.Errorf("core: NetworkDelay must be >= 0, got %v", c.NetworkDelay)
	}
	if c.Faults.Enabled() && c.NetworkDelay != 0 {
		return fmt.Errorf("core: NetworkDelay %v conflicts with an enabled fault schedule — set Faults.Delay instead (faults.Scalar is the exact equivalent)", c.NetworkDelay)
	}
	return c.params().validate()
}

// AsyncClientStats summarizes one client's activity in an async run.
type AsyncClientStats struct {
	ID        int
	CycleTime float64 // the client's fixed cycle time in simulated seconds
	Cycles    int     // completed train-publish cycles
	Published int     // cycles that passed the publish gate
	FinalAcc  float64 // trained-model accuracy at the last cycle
}

// AsyncEvent describes one processed client activation — the Detail payload
// of the RoundEvents the asynchronous engine emits.
type AsyncEvent struct {
	// Seq is the 0-based ordinal of the event in processing order.
	Seq int
	// Time is the simulated time of the activation in seconds.
	Time float64
	// Client is the activated client's ID.
	Client int
	// TrainedAcc/TrainedLoss score the freshly trained model; RefAcc/RefLoss
	// the consensus reference, both on the client's local test split.
	TrainedAcc  float64
	TrainedLoss float64
	RefAcc      float64
	RefLoss     float64
	// Published reports whether the cycle passed the publish gate.
	Published bool
}

// AsyncResult is the outcome of an event-driven run.
type AsyncResult struct {
	SimulatedTime float64
	Transactions  int
	Clients       []AsyncClientStats
	// DAG is the final tangle, for post-run inspection and metrics.
	DAG *dag.DAG
	// Communication statistics, populated only when a non-uniform fault
	// schedule prices individual links: cross-link deliveries of published
	// transactions, initial-broadcast losses recovered by re-gossip, and
	// duplicate deliveries.
	Deliveries           int
	DroppedDeliveries    int
	DuplicatedDeliveries int
}

// event is one scheduled client activation.
type event struct {
	at     float64
	seq    int // tie-breaker for determinism
	client int // index into clients
}

// eventQueue is a min-heap of events ordered by time then sequence.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = shrinkCap(old[:n-1])
	return e
}

// push and pop are heap.Push and heap.Pop move for move (a checkpoint stores
// the queue in heap order), without boxing the event into an interface.
func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	heap.Fix(q, len(*q)-1)
}

func (q *eventQueue) pop() event {
	old := *q
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	*q = old[:n]
	heap.Fix(q, 0)
	*q = shrinkCap(*q)
	return e
}

// shrinkCap releases a slice's backing array once its length falls below a
// quarter of the capacity: over a long run, transient bursts (a churn
// recovery flood of events, a delay spike's pending backlog) would otherwise
// pin their high-water storage forever.
func shrinkCap[T any](s []T) []T {
	if cap(s) >= 64 && len(s) < cap(s)/4 {
		return append(make([]T, 0, len(s)*2), s...)
	}
	return s
}

// txDelivery is the per-transaction metadata the fault model needs to
// recompute any link's delivery: the publish sequence number and time.
type txDelivery struct {
	pubSeq  int
	pubTime float64
}

// pendingTxAsync is a published transaction awaiting network propagation.
// Under a fault model, visibleAt is the earliest delivery over all observers
// (entry into the global tangle); the txDelivery keys the model's per-link
// delivery draws so each observer's view reveals the transaction at its own
// link's delivery time.
type pendingTxAsync struct {
	pendingTx
	txDelivery
	visibleAt float64
}

// asyncClient is what the event schedule adds to one participant; entry i
// belongs to body.clients[i].
type asyncClient struct {
	cycleTime float64
	stats     AsyncClientStats
}

// AsyncSimulation is a running event-driven Specializing DAG experiment: the
// asynchronous counterpart of Simulation, advanced one client activation at
// a time. Without a fault model, the DAG a client observes at time t
// contains exactly the transactions published before t − NetworkDelay; with
// one, each client observes the transactions its own links have delivered by
// t (per-link latency/jitter, re-gossip after drops, partition deferral).
type AsyncSimulation struct {
	*body
	cfg     AsyncConfig
	async   []asyncClient
	queue   eventQueue
	pending []pendingTxAsync
	seq     int // next scheduling sequence number
	events  int // processed events
	done    bool

	// netDelay is the effective uniform broadcast delay: cfg.NetworkDelay, or
	// the fault schedule's scalar delay when Faults is uniform.
	netDelay float64
	// pubSeq numbers publishes in event order; it keys the fault model's
	// per-link delivery draws.
	pubSeq int
	// txInfo maps tangle transactions to their publish metadata so views can
	// recompute per-observer delivery times; deliverRNG is the publish loop's
	// register for them. Only set when net != nil.
	txInfo     map[dag.ID]txDelivery
	deliverRNG *xrand.RNG
	// Communication counters (net != nil only).
	deliveries           int
	droppedDeliveries    int
	duplicatedDeliveries int

	// window holds the computed activations of the lookahead window being
	// committed, in event order, one per Step. It is not state: a checkpoint
	// taken inside a window resumes and computes them again.
	window []computed
	// widest is the largest window formed so far.
	widest int
	// Storage computeWindow reuses from window to window: the window's
	// events, each activation's done signal and the computed activations.
	evs      []event
	ready    []sync.WaitGroup
	computed []computed
}

// computed is one activation of a lookahead window awaiting its commit: the
// scores, and the publication when the gate passed.
type computed struct {
	ev                      event
	trainedAcc, trainedLoss float64
	refAcc, refLoss         float64
	published               bool
	pub                     pendingTx
}

// NewAsyncSimulation validates inputs and prepares an event-driven
// simulation. The DAG starts with a genesis transaction carrying a randomly
// initialized model; every client's first activation is scheduled within one
// of its own cycle times (desynchronized start).
func NewAsyncSimulation(fed *dataset.Federation, cfg AsyncConfig) (*AsyncSimulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := newBody(fed, cfg.params(), cfg.Duration)
	if err != nil {
		return nil, err
	}
	a := &AsyncSimulation{body: b, cfg: cfg, netDelay: cfg.NetworkDelay}
	// Under a non-uniform schedule each client owns a partial view revealed
	// at its own links' delivery times.
	b.partialViews = b.net != nil
	b.resetViews()
	if b.net != nil {
		a.txInfo, a.deliverRNG = make(map[dag.ID]txDelivery), new(xrand.RNG)
	} else if cfg.Faults.Enabled() {
		// The schedule is exactly the historical uniform broadcast delay:
		// keep the scalar code path (and its exact numerics).
		a.netDelay = b.uniformDelay
	}

	a.async = make([]asyncClient, len(b.clients))
	for i, c := range b.clients {
		ac := &a.async[i]
		crng := b.root.SplitIndex("async-client", c.id)
		ac.cycleTime = cfg.MinCycle + float64(crng.Float64()*(cfg.MaxCycle-cfg.MinCycle))
		if b.net != nil {
			// Stragglers run every cycle slower by the configured factor (a
			// factor of 1 is the exact identity for ordinary clients).
			ac.cycleTime *= b.net.CycleFactor(c.id)
		}
		ac.stats = AsyncClientStats{ID: c.id, CycleTime: ac.cycleTime}
		a.queue.push(event{at: crng.Float64() * ac.cycleTime, seq: a.seq, client: i})
		a.seq++
	}
	return a, nil
}

// flush applies every pending transaction whose propagation delay has
// elapsed by now. Pending entries are in publish order and a parent's entry
// into the tangle never postdates a child's publish, so parents are always
// added before their children.
func (a *AsyncSimulation) flush(now float64) {
	kept := a.pending[:0]
	for _, p := range a.pending {
		if p.visibleAt <= now {
			tx := a.deliver(p.pendingTx, int(p.visibleAt))
			if a.net != nil {
				a.txInfo[tx.ID] = p.txDelivery
			}
		} else {
			kept = append(kept, p)
		}
	}
	// Zero the reused tail: dag.Add retains the params slice itself, so a
	// stale slot in the old backing array would keep a delivered
	// transaction's parameters reachable (and un-collectible after epoch
	// compaction releases the tangle's copy) until it is next overwritten.
	tail := a.pending[len(kept):]
	for i := range tail {
		tail[i] = pendingTxAsync{}
	}
	a.pending = shrinkCap(kept)
}

// finish applies all remaining pending transactions and marks the run done.
func (a *AsyncSimulation) finish() {
	if a.done {
		return
	}
	if a.net != nil {
		// Per-link deliveries (and partition heals) can land arbitrarily
		// after the horizon; the final tangle contains every publish.
		a.flush(math.Inf(1))
	} else {
		a.flush(a.cfg.Duration + a.netDelay)
	}
	a.done = true
}

// step commits the next scheduled client activation, computing the lookahead
// window it opens first if it opens one. It returns the event detail, or nil
// when the simulated time horizon is exhausted; an error (a failed epoch
// freeze) leaves the activation scheduled and nothing changed.
func (a *AsyncSimulation) step() (*AsyncEvent, error) {
	if a.done {
		return nil, nil
	}
	var ev event
	for {
		if a.queue.Len() == 0 {
			a.finish()
			return nil, nil
		}
		ev = a.queue.pop()
		if ev.at > a.cfg.Duration {
			a.finish()
			return nil, nil
		}
		if a.net == nil || !a.net.Crashed(a.clients[ev.client].id, ev.at) {
			break
		}
		// The client is inside its crash window: the activation is lost and
		// the client reschedules at its recovery. The skip happens inside
		// step so the engine adapter's "nil means done" contract holds.
		if rec := a.net.Recovery(a.clients[ev.client].id, ev.at); rec <= a.cfg.Duration {
			a.queue.push(event{at: rec, seq: a.seq, client: ev.client})
			a.seq++
		}
	}
	a.flush(ev.at)
	if err := a.compact(int(ev.at)); err != nil {
		// Nothing of the activation has run yet: put it back, so the state is
		// the one before this step and a retry repeats it.
		a.queue.push(ev)
		return nil, err
	}
	if len(a.window) == 0 {
		a.computeWindow(ev)
	}
	r := a.window[0] // the window's activations are the next ones popped
	a.window[0] = computed{}
	a.window = a.window[1:]

	c, ac := a.clients[ev.client], &a.async[ev.client]
	ac.stats.Cycles++
	ac.stats.FinalAcc = r.trainedAcc
	if r.published {
		ac.stats.Published++
		p := pendingTxAsync{pendingTx: r.pub, visibleAt: ev.at + a.netDelay}
		if a.net != nil {
			// The transaction enters the global tangle at its earliest
			// delivery over all observers; each observer's view reveals it at
			// that observer's own link time. Cross-link outcomes feed the
			// run's communication statistics.
			p.pubSeq = a.pubSeq
			p.pubTime = ev.at
			a.pubSeq++
			minVis := math.Inf(1)
			for _, o := range a.clients {
				d := a.net.Deliver(p.pubSeq, c.id, o.id, ev.at, a.deliverRNG)
				if d.VisibleAt < minVis {
					minVis = d.VisibleAt
				}
				if o.id != c.id {
					a.deliveries++
					a.droppedDeliveries += d.Dropped
					if d.Duplicated {
						a.duplicatedDeliveries++
					}
				}
			}
			p.visibleAt = minVis
		}
		a.pending = append(a.pending, p)
	}

	next := ev.at + ac.cycleTime
	if next <= a.cfg.Duration {
		a.queue.push(event{at: next, seq: a.seq, client: ev.client})
		a.seq++
	}

	detail := &AsyncEvent{
		Seq:         a.events,
		Time:        ev.at,
		Client:      c.id,
		TrainedAcc:  r.trainedAcc,
		TrainedLoss: r.trainedLoss,
		RefAcc:      r.refAcc,
		RefLoss:     r.refLoss,
		Published:   r.published,
	}
	a.events++
	return detail, nil
}

// lookahead is the window bound: commits push nothing earlier than MinCycle
// after a window's first activation. Without a delay each activation sees
// the one before it, and under a non-uniform fault model each client walks
// its own view: there windows hold one activation.
func (a *AsyncSimulation) lookahead() float64 {
	if a.net != nil || a.netDelay == 0 {
		return 0
	}
	return a.cfg.MinCycle
}

// windowOf returns the activations of the window that first opens, first
// included, in event order: the queued ones less than the lookahead after it,
// up to the horizon. They stay queued; each Step pops and commits one. A
// client has exactly one queued event, so it appears at most once and its
// eval cache has one user.
func (a *AsyncSimulation) windowOf(first event) []event {
	evs := append(a.evs[:0], first)
	end := first.at + a.lookahead()
	for _, ev := range a.queue {
		if ev.at < end && ev.at <= a.cfg.Duration {
			evs = append(evs, ev)
		}
	}
	a.evs = evs
	sort.Sort(eventQueue(evs[1:]))
	seen := make([]bool, len(a.clients))
	for _, ev := range evs {
		if seen[ev.client] {
			panic(fmt.Sprintf("core: client %d activates twice in one lookahead window", a.clients[ev.client].id))
		}
		seen[ev.client] = true
	}
	return evs
}

// seenBy returns how many of the window's activations before evs[j] publish
// in time for it to see: those at least NetworkDelay earlier, a prefix.
func (a *AsyncSimulation) seenBy(evs []event, j int) int {
	i := 0
	for i < j && evs[i].at+a.netDelay <= evs[j].at {
		i++
	}
	return i
}

// computeWindow computes the window that first opens into a.window, on the
// engine's budget. An activation waits for the earlier ones it sees, which
// were claimed before it, so no wait is circular. The compute only reads
// shared state, and it joins before the first commit.
func (a *AsyncSimulation) computeWindow(first event) {
	evs := a.windowOf(first)
	n := len(evs)
	a.widest = max(a.widest, n)
	if n > len(a.ready) {
		// Fresh storage, never a copy: a WaitGroup must not be copied, and
		// every committed entry of the old array is already zero.
		a.ready, a.computed = make([]sync.WaitGroup, n), make([]computed, n)
	}
	done := a.ready[:n]
	a.window = a.computed[:n]
	for j := range done {
		done[j].Add(1)
	}
	par.ForEachIn(a.pool, a.workers, n, func(j int) {
		defer done[j].Done()
		seen := a.seenBy(evs, j)
		for i := 0; i < seen; i++ {
			done[i].Wait()
		}
		a.window[j] = a.activate(evs[j], a.window[:seen])
	})
}

// activate computes one activation on a borrowed scratch entry: phases 1–3
// over the tangle as the client sees it at ev.at, both evaluations and the
// publish decision. earlier are the computed activations of its window it
// sees. It writes only state the client or the scratch owns.
func (a *AsyncSimulation) activate(ev event, earlier []computed) computed {
	c := a.clients[ev.client]
	s := a.borrow(c)
	defer a.giveBack(c, s)
	var graph tipselect.Graph = a.tangle
	if a.net != nil {
		// Under a fault model each client walks its own partial view, revealed
		// at the times its links actually deliver (jitter, re-gossip after
		// drops, partition deferral). Delivery times are pure functions of the
		// model, so the monotone reveal reconstructs identically after a
		// resume.
		c.view.RevealWhere(func(tx *dag.Transaction) bool {
			info, ok := a.txInfo[tx.ID]
			if !ok {
				return true // genesis: visible to everyone from the start
			}
			return a.net.Deliver(info.pubSeq, tx.Issuer, c.id, info.pubTime, &s.rng).VisibleAt <= ev.at
		})
		graph = c.view
	} else if len(earlier) > 0 || len(a.pending) > 0 && a.pending[0].visibleAt <= ev.at {
		// What flush(ev.at) will have delivered by this commit, in its order:
		// the pending prefix visible by then (pending is in visibleAt order
		// under a uniform delay), then the window's earlier publications. The
		// overlay holds a search mark per ID ever issued, so it stays with
		// the scratch entry.
		if s.overlay == nil {
			s.overlay = new(dag.Overlay)
		}
		o := s.overlay
		o.Reset(a.tangle)
		add := func(p pendingTx, visibleAt float64) {
			if _, err := o.Add(p.issuer, int(visibleAt), p.parents, p.params, p.meta); err != nil {
				panic(fmt.Sprintf("core: publishing failed: %v", err))
			}
		}
		for _, p := range a.pending {
			if p.visibleAt > ev.at {
				break
			}
			add(p.pendingTx, p.visibleAt)
		}
		for _, e := range earlier {
			if e.published {
				add(e.pub, e.ev.at+a.netDelay)
			}
		}
		graph = o
	}

	s.rng.Reseed(xrand.SplitIndexSeed(a.root.Seed(), "async-event", ev.seq))
	act := a.walkAverageTrain(c, graph, s)
	r := computed{ev: ev}
	r.trainedLoss, r.trainedAcc = c.model.Evaluate(c.testX, c.testY)
	// The reference is scored through the model's scratch buffers without
	// copying its parameters in (as Simulation.runClient does), so the
	// trained weights the publish ships stay untouched — see
	// TestAsyncPublishesTrainedModel.
	r.refLoss, r.refAcc = c.model.EvaluateParams(act.refParams, c.testX, c.testY)
	if r.published = a.publishes(r.trainedAcc, r.trainedLoss, r.refAcc, r.refLoss); r.published {
		r.pub = c.publication(act, c.model.ParamsCopy(), r.trainedAcc)
	}
	return r
}

// Events returns the number of client activations processed so far.
func (a *AsyncSimulation) Events() int { return a.events }

// Result summarizes the run so far: per-client statistics sorted by client
// ID plus the tangle. It is valid mid-run (partial results after a canceled
// run) as well as after completion.
func (a *AsyncSimulation) Result() *AsyncResult {
	res := &AsyncResult{
		SimulatedTime:        a.cfg.Duration,
		Transactions:         a.tangle.Size(),
		DAG:                  a.tangle,
		Deliveries:           a.deliveries,
		DroppedDeliveries:    a.droppedDeliveries,
		DuplicatedDeliveries: a.duplicatedDeliveries,
	}
	for _, ac := range a.async {
		res.Clients = append(res.Clients, ac.stats)
	}
	sort.Slice(res.Clients, func(i, j int) bool { return res.Clients[i].ID < res.Clients[j].ID })
	return res
}
