package core

// The engine body: everything Simulation and AsyncSimulation have in common.
// See the package comment for the body / schedule / delivery split.

import (
	"fmt"
	"sync"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// params are the run parameters both engines share, copied out of their flat
// exported configs (Config.params, AsyncConfig.params). The fields only the
// round engine exposes (sharedLayers, gateOff, evalOff) are zero under the
// event engine.
type params struct {
	local          nn.SGDConfig
	arch           nn.Arch
	selector       tipselect.Selector
	referenceWalks int
	sharedLayers   int
	gateOff        bool // DisablePublishGate
	evalOff        bool // EvalScopeNone
	faults         faults.Config
	compaction     dag.Compaction
	workers        int
	pool           *par.Budget
	seed           int64
}

// validate reports errors in the shared parameters.
func (p params) validate() error {
	if err := p.arch.Validate(); err != nil {
		return err
	}
	if p.referenceWalks < 0 {
		return fmt.Errorf("core: ReferenceWalks must be >= 0, got %d", p.referenceWalks)
	}
	if p.workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", p.workers)
	}
	if err := p.faults.Validate(); err != nil {
		return err
	}
	if p.compaction.Enabled() {
		if err := p.compaction.Validate(); err != nil {
			return err
		}
		if p.faults.Enabled() {
			// The freeze guard relies on Round being monotone in insertion
			// order and on clients approving only current tips, both of which
			// fault schedules (per-link delivery, partition deferral) break.
			return fmt.Errorf("core: Compaction cannot run under a fault schedule; disable Faults")
		}
	}
	return nil
}

// client is the in-simulation state of one participant. Feature matrices
// are zero-copy views of the federation's flat storage (training never
// mutates inputs); labels are private copies because the poisoning attack
// flips them per client.
type client struct {
	id      int
	cluster int

	trainX mathx.Matrix
	trainY []int
	testX  mathx.Matrix
	testY  []int
	// origTestY preserves pre-poisoning test labels for the
	// flipped-prediction metric (Fig. 12 counts true 3s predicted as 8s).
	origTestY []int

	// model is the scratch model of the activation c is in (borrow), nil
	// between activations. eval's scorers read it at call time; a client is
	// in at most one activation at a time and its walks run one after
	// another, so the cache's scoring lock never waits on this model.
	model    *nn.MLP
	eval     *tipselect.EvalCache
	poisoned bool
	// lastParams is the client's most recently trained model, the source of
	// the personal head under partial-layer sharing; nil without one.
	lastParams []float64
	// view is the client's partial-visibility view of the tangle; nil under
	// ideal (or uniformly delayed) broadcast.
	view *dag.View
}

// body is the engine-independent half of a Specializing DAG experiment: the
// tangle, the clients, the instantiated fault model and phases 1–3 of the
// Fig. 1 loop. Both engines embed it.
type body struct {
	params
	fed     *dataset.Federation
	root    *xrand.RNG
	tangle  *dag.DAG
	clients []*client

	// net is the instantiated fault model, nil when the schedule degenerates
	// to a uniform broadcast delay (including Faults disabled entirely) — the
	// nil path is bit-for-bit the fault-free engine. uniformDelay is that
	// scalar delay; the round grid ignores it, the event engine applies it.
	net          *faults.Model
	uniformDelay float64
	// partialViews is set by the engine when its delivery model gives each
	// client its own view of the tangle (see resetViews).
	partialViews bool
	// compFloor tracks the tangle's live floor so eval caches are rebased
	// exactly once per floor advance (epoch compaction).
	compFloor dag.ID

	// free holds the scratch entries no activation is using; an empty list
	// clones genesis. There are as many entries as activations ever ran at
	// once, at most Workers, however large the federation.
	genesis *nn.MLP
	freeMu  sync.Mutex
	free    []*scratch
}

// scratch is one activation's working memory: a model whose parameters,
// gradients and batch buffers every use writes before it reads them, a ~5 KB
// RNG register every use re-seeds before it draws (the event engine's reveal
// for each per-link draw, then the activation's split stream, then the
// training split off it), and the event engine's window overlay, made on
// first use.
type scratch struct {
	model   *nn.MLP
	rng     xrand.RNG
	overlay *dag.Overlay
}

// borrow takes a scratch entry for one activation of c and makes its model
// c's until giveBack.
func (b *body) borrow(c *client) *scratch {
	b.freeMu.Lock()
	var s *scratch
	if n := len(b.free); n > 0 {
		s, b.free = b.free[n-1], b.free[:n-1]
	}
	b.freeMu.Unlock()
	if s == nil {
		s = &scratch{model: b.genesis.Clone()}
	}
	c.model = s.model
	return s
}

// giveBack ends c's activation and returns its scratch entry to the list.
func (b *body) giveBack(c *client, s *scratch) {
	c.model = nil
	b.freeMu.Lock()
	b.free = append(b.free, s)
	b.freeMu.Unlock()
}

// newBody fills defaults, derives the compaction guard band, and builds the
// genesis tangle, the fault model (drawn against horizon, in the engine's
// time unit) and one client per federation member. p must be validated.
func newBody(fed *dataset.Federation, p params, horizon float64) (*body, error) {
	if err := fed.Validate(); err != nil {
		return nil, err
	}
	if p.selector == nil {
		p.selector = tipselect.AccuracyWalk{Alpha: 10}
	}
	if p.referenceWalks == 0 {
		p.referenceWalks = 1
	}
	if p.compaction.Enabled() {
		// The freeze guard must cover every transaction a walk can reach;
		// that bound is the selector's entry band, derived here so callers
		// only choose Width/Live/SpillDir. DepthMin additionally lets the
		// guard retire dead cones instead of blocking on them forever.
		gmin, gmax, err := tipselect.CompactionGuardBand(p.selector)
		if err != nil {
			return nil, err
		}
		p.compaction.GuardDepthMin, p.compaction.GuardDepth = gmin, gmax
	}
	p.local.Shuffle = true

	root := xrand.New(p.seed)
	genesis := nn.New(p.arch, root.Split("genesis"))
	b := &body{params: p, fed: fed, root: root, tangle: dag.New(genesis.ParamsCopy()), genesis: genesis}
	if p.compaction.Enabled() {
		if err := b.tangle.SetCompaction(p.compaction); err != nil {
			return nil, err
		}
	}

	if p.faults.Enabled() {
		ids := make([]int, len(fed.Clients))
		for i, fc := range fed.Clients {
			ids[i] = fc.ID
		}
		m, err := faults.New(p.faults, root, ids, horizon)
		if err != nil {
			return nil, err
		}
		if d, uniform := m.Uniform(); uniform {
			b.uniformDelay = d
		} else {
			b.net = m
		}
	}

	for _, fc := range fed.Clients {
		c := &client{id: fc.ID, cluster: fc.Cluster}
		c.trainX, c.trainY = fc.Train.X, fc.Train.CopyLabels()
		c.testX, c.testY = fc.Test.X, fc.Test.CopyLabels()
		c.origTestY = append([]int(nil), c.testY...)
		c.eval = b.newEvalFor(c)
		b.clients = append(b.clients, c)
	}
	return b, nil
}

// newEvalFor builds c's walk-evaluation cache: a single and a batched scorer
// over its test split, run on the scratch model c's activation borrowed.
// Walks only consume accuracies, so both skip the loss reduction (values are
// bit-identical to Evaluate's). The batch scorer reuses one result buffer,
// which the cache reads under its scoring lock before the next call.
func (b *body) newEvalFor(c *client) *tipselect.EvalCache {
	var accs []float64
	e := tipselect.NewEvalCache(
		func(params []float64) float64 {
			return c.model.AccuracyParams(params, c.testX, c.testY)
		},
		func(params [][]float64) []float64 {
			accs = c.model.AccuracyManyInto(accs[:0], params, c.testX, c.testY)
			return accs
		},
	)
	e.Disable = b.evalOff
	return e
}

// resetViews gives every client a fresh partial view of the current tangle
// when the engine's delivery model needs one. Reveal state is reconstructed
// lazily at the client's next walk: both engines' reveal predicates are
// monotone (in the round counter, or in simulated time over pure delivery
// draws), so a fresh view reveals exactly the set an uninterrupted run had
// accumulated — which is why views are never checkpointed.
func (b *body) resetViews() {
	if !b.partialViews {
		return
	}
	for _, c := range b.clients {
		c.view = dag.NewView(b.tangle)
	}
}

// DAG exposes the underlying tangle (read-only use intended). Mid-run it
// holds the transactions delivered so far: the event engine's publishes
// enter it once their propagation delay elapses.
func (b *body) DAG() *dag.DAG { return b.tangle }

// compact freezes epochs that aged out of the live suffix as of the given
// time bucket (round index, or whole simulated seconds) and, when the live
// floor advances, rebases every client's eval cache onto the suffix. Engines
// call it from their sequential section (the quiescent point CompactTo
// requires); it is a no-op when compaction is off. An error means an epoch
// could not be spilled (directory gone, disk full): that epoch and everything
// after it stay live, the tangle is as it was, and the next call retries.
func (b *body) compact(bucket int) error {
	if !b.compaction.Enabled() {
		return nil
	}
	floor, err := b.tangle.CompactTo(bucket)
	b.rebaseCaches(floor) // epochs frozen before the failing one stay frozen
	if err != nil {
		return fmt.Errorf("core: epoch compaction failed: %w", err)
	}
	return nil
}

func (b *body) rebaseCaches(floor dag.ID) {
	if floor > b.compFloor {
		b.compFloor = floor
		for _, c := range b.clients {
			c.eval.Advance(floor)
		}
	}
}

// activation is what phases 1–3 of Fig. 1 leave behind for the engine's
// evaluation and publish phase; the trained model sits in the activation's
// scratch model.
type activation struct {
	tips      [2]*dag.Transaction // the two approved tips
	refTx     dag.ID
	refParams []float64 // consensus reference model
	stats     tipselect.WalkStats
}

// walkAverageTrain runs phases 1–3 of Fig. 1 for one activation of c over
// the graph its engine's delivery model lets it see; c holds the borrowed
// scratch s. It only reads shared state and only writes state owned by c or
// s, so distinct clients may run concurrently; all randomness comes from
// s.rng, the activation's own split stream the engine seeded, consumed in a
// fixed order (tip walks, reference walks), then re-seeded with its "train"
// split for training.
func (b *body) walkAverageTrain(c *client, graph tipselect.Graph, s *scratch) activation {
	// (1) Biased random walk, twice, to select two tips; then the consensus
	// reference via additional walk(s).
	var act activation
	var st tipselect.WalkStats
	for i := range act.tips {
		act.tips[i], st = b.selector.SelectTip(graph, c.eval, &s.rng)
		act.stats.Add(st)
	}
	act.refTx, act.refParams, st = consensusReference(graph, b.selector, b.referenceWalks, c.eval, &s.rng)
	act.stats.Add(st)

	// (2) Average the two tip models straight into the model. Under
	// partial-layer sharing only the first sharedLayers layers come from the
	// DAG; the head stays the client's own.
	params := mathx.MeanVecsInto(c.model.Params(), act.tips[0].Params, act.tips[1].Params)
	if b.personalHead() && c.lastParams != nil {
		split := b.arch.PrefixParams(b.sharedLayers)
		copy(params[split:], c.lastParams[split:])
	}

	// (3) Train the averaged model on local data.
	s.rng.Reseed(xrand.SplitSeed(s.rng.Seed(), "train"))
	c.model.Train(c.trainX, c.trainY, b.local, &s.rng)
	return act
}

// personalHead reports whether partial-layer sharing leaves clients a head of
// their own: the layers past sharedLayers, taken from lastParams.
func (b *body) personalHead() bool {
	return b.sharedLayers > 0 && b.sharedLayers < b.arch.NumLayers()
}

// consensusReference runs `walks` tip selections and returns the consensus
// reference: the first selected transaction's ID and, when walks > 1, the
// element-wise average of all selected models.
func consensusReference(graph tipselect.Graph, sel tipselect.Selector, walks int, eval tipselect.Evaluator, rng *xrand.RNG) (dag.ID, []float64, tipselect.WalkStats) {
	var stats tipselect.WalkStats
	if walks <= 1 {
		tx, st := sel.SelectTip(graph, eval, rng)
		return tx.ID, tx.Params, st
	}
	params := make([][]float64, 0, walks)
	var first dag.ID
	for i := 0; i < walks; i++ {
		tx, st := sel.SelectTip(graph, eval, rng)
		stats.Add(st)
		params = append(params, tx.Params)
		if i == 0 {
			first = tx.ID
		}
	}
	return first, nn.AverageParams(params...), stats
}

// publishes is phase 4's gate: a trained model is published if it beats the
// consensus reference on local test data (ties broken by loss so saturated
// clients keep publishing), or unconditionally under DisablePublishGate.
func (b *body) publishes(trainedAcc, trainedLoss, refAcc, refLoss float64) bool {
	return b.gateOff || trainedAcc > refAcc || (trainedAcc == refAcc && trainedLoss <= refLoss)
}

// pendingTx is a publish decision awaiting delivery: the round engine applies
// it at round end (concurrent semantics), the event engine once its
// propagation delay elapsed.
type pendingTx struct {
	issuer  int
	parents []dag.ID
	params  []float64
	meta    dag.Meta
}

// publication assembles c's publish of its freshly trained model.
func (c *client) publication(act activation, trainedParams []float64, trainedAcc float64) pendingTx {
	return pendingTx{
		issuer:  c.id,
		parents: []dag.ID{act.tips[0].ID, act.tips[1].ID},
		params:  trainedParams,
		meta:    dag.Meta{TestAcc: trainedAcc, Poisoned: c.poisoned},
	}
}

// deliver adds a pending transaction to the tangle, stamped with the given
// time bucket.
func (b *body) deliver(p pendingTx, bucket int) *dag.Transaction {
	tx, err := b.tangle.Add(p.issuer, bucket, p.parents, p.params, p.meta)
	if err != nil {
		// Parents came from this DAG and are never removed; failure here is
		// a programming error.
		panic(fmt.Sprintf("core: publishing failed: %v", err))
	}
	return tx
}
