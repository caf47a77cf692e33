// Package core implements the paper's primary contribution: the
// Specializing DAG — fully decentralized federated learning over a tangle of
// model updates with accuracy-aware tip selection (§4).
//
// Each training step of a client runs the four-phase loop of Fig. 1:
//
//  1. biased random walk: select two tips whose models perform well on the
//     client's local test data;
//  2. average the two tip models;
//  3. train the averaged model on local data;
//  4. publish the result as a new transaction approving the two tips — but
//     only if it beats the client's current consensus reference model.
//
// # Body, schedule, delivery
//
// Two engines run that loop, and they share one body (body.go): parameter
// defaults and validation, the genesis tangle and its parallelism and
// compaction wiring, the instantiated fault model, the clients, epoch
// compaction, phases 1–3 (walkAverageTrain) and the publish-gate predicate.
// Checkpoints share one envelope the same way (snapshot.go). What each
// engine file keeps is what is genuinely its own:
//
//   - the schedule — who activates when. Simulation (this file) proceeds in
//     discrete rounds like the paper's prototype (§5.3): every round a
//     sampled subset of clients is activated behind a barrier, all of them
//     observe the DAG state from the start of the round (so their publishes
//     are concurrent, which is what gives the tangle its width), and their
//     transactions are appended at round end. AsyncSimulation (async.go)
//     pops client activations off an event heap ordered by simulated time,
//     each client cycling at its own pace (§5.3.3).
//   - delivery — when a publish becomes visible to whom. Rounds: RevealDelay
//     and partition windows filter per-client views at round granularity.
//     Events: a pending queue holds publishes until their propagation delay
//     (uniform, or drawn per link by the fault model) has elapsed.
//
// Both score the trained model and then the consensus reference on the
// activation's scratch model (EvaluateParams aliases the reference in, so
// the trained weights are what the publish ships). Scratch belongs to the
// activation, not the client: each borrows an entry from the body's one free
// list and gives it back, so an engine holds as many scratch models as
// activations ever ran at once. Every use writes scratch before reading it,
// so which entry an activation gets moves no bit.
//
// Decision, recorded so it is not re-litigated by accident: the round engine
// is NOT the event engine under a barrier schedule. The two derive their
// per-activation randomness from different split keys ("client-round",
// round*100003+client vs. "async-event", scheduling sequence number) and
// reveal transactions under different rules (round horizon vs. simulated
// delivery time, stamped into Transaction.Round), so expressing one through
// the other would move every golden trajectory — the experiment metrics
// (sim.TestExperimentsGolden), the checkpoint fixtures, the worker-invariance and resume batteries — for no
// behavioural gain. They share code, not a schedule.
//
// # Lookahead windows
//
// A publication made at t enters the tangle at t + NetworkDelay, and a commit
// reschedules its client no earlier than t + MinCycle (the Chandy–Misra–Bryant
// lookahead). So the Step that pops an activation at t₀ computes the window of
// activations queued before t₀ + MinCycle on the engine's budget — members
// less than the delay apart at once, one that sees an earlier member after it
// — and each Step commits one in event order with the sequential bookkeeping.
// A client is in a window at most once, so its eval cache has one user, and
// each activation borrows a scratch entry of its own. Buffered results are
// not state: a checkpoint inside a window resumes and computes them again.
// An activation at t walks a dag.Overlay, the tangle plus what flush(t) will
// have delivered by its commit, with the IDs and child order flush gives
// them. A freeze at a commit inside the window follows the compute's join, so
// CompactTo keeps its quiescent point, and the guard never freezes what a
// later walk can reach (the compaction on/off equivalence). Without a delay, or under per-client fault views, a window
// holds one activation. Windows cut at the delay held ~6 activations on
// async-longhaul (0.1 s) and gained 1.1–1.3×; cut at MinCycle they hold ~25
// and gain 1.55× activations_per_s (2 cores, 10/10 pairs; 1.31× unscaled).
package core

import (
	"fmt"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/tipselect"
)

// PoisonConfig describes the flipped-label attack scenario of §4.4/§5.3.4:
// an attacker manipulates the dataset (train *and* test) of a fraction of
// clients by swapping two labels. Poisoned clients are unaware and keep
// participating normally.
type PoisonConfig struct {
	// Fraction of clients whose labels get flipped (paper: 0, 0.2, 0.3).
	Fraction float64
	// FlipA/FlipB are the swapped labels (paper: 3 and 8).
	FlipA, FlipB int
	// StartRound is the round at which the attack begins (paper: 100
	// clean rounds first).
	StartRound int
	// Track enables flipped-prediction measurement even when Fraction is 0
	// (the p=0.0 baseline of Fig. 12).
	Track bool
	// RandomAttackers, when positive, additionally injects that many
	// attacker "clients" per round that publish random model weights
	// approving random tips — the first attack type of the threat model
	// (§4.4). They do not train and are tracked as poisoned transactions.
	RandomAttackers int
}

// Enabled reports whether any poisoning bookkeeping is needed.
func (p PoisonConfig) Enabled() bool {
	return p.Track || p.Fraction > 0 || p.RandomAttackers > 0
}

// EvalScope selects the lifetime of the per-client shared evaluation cache
// that the tip-walk/ReferenceWalks fan-out scores transactions through.
// Accuracies are pure per-transaction values, so the scope never changes
// results — it trades evaluation work against memory. (Bounding that memory
// over a long run is compaction's job: EvalCache.Advance drops the entries
// of frozen epochs.)
type EvalScope int

const (
	// EvalScopeRun (the default) keeps cached accuracies for the whole run:
	// a transaction is scored at most once per client, and only once it has
	// a sibling — a walk moves to a lone child unscored, since one child's
	// weight is exp(0·α) whatever it scores.
	EvalScopeRun EvalScope = iota
	// EvalScopeNone disables caching entirely: every lookup re-evaluates,
	// matching the cost profile of the paper's prototype, which scored
	// every child at every step. The Fig. 15 scalability experiment needs
	// it: a cached walk gets cheaper the more often its client has walked,
	// and Fig. 15's levels vary exactly that — fixed rounds, 5/10/20/40
	// clients per round — so a cache would flatter the higher levels.
	EvalScopeNone
)

// String returns the scope's name.
func (e EvalScope) String() string {
	switch e {
	case EvalScopeRun:
		return "run"
	case EvalScopeNone:
		return "none"
	default:
		return "unknown"
	}
}

// Config parameterizes a Specializing DAG simulation.
type Config struct {
	// Rounds and ClientsPerRound follow Table 1 (100 rounds, 10 clients).
	Rounds          int
	ClientsPerRound int
	// Local is the client-side SGD configuration (Table 1).
	Local nn.SGDConfig
	// Arch is the model architecture; the genesis transaction carries a
	// randomly initialized model of this shape.
	Arch nn.Arch
	// Selector is the tip-selection strategy. Nil defaults to the paper's
	// accuracy walk with α=10 and standard normalization.
	Selector tipselect.Selector
	// ReferenceWalks is the number of walks used to obtain the consensus
	// reference model (averaged if > 1). Default 1.
	ReferenceWalks int
	// DisablePublishGate publishes every trained model, even if it does not
	// beat the reference (ablation; the paper always gates).
	DisablePublishGate bool
	// SharedLayers, when in (0, NumLayers), enables partial-layer sharing —
	// the personalization extension named in the paper's conclusion
	// ("training only some layers of the machine learning model"): only the
	// first SharedLayers dense layers of the two selected tip models are
	// averaged; the remaining layers (the "head") are carried over from the
	// client's own previous model, making them persistently personal.
	// 0 (default) shares the whole model as in the paper's evaluation.
	SharedLayers int
	// EvalScope bounds the lifetime of the per-client evaluation cache (see
	// the EvalScope constants). The default, EvalScopeRun, caches for the
	// whole run. Results are identical for every scope.
	EvalScope EvalScope
	// RevealDelay, when positive, models non-ideal transaction
	// dissemination (relaxing the ideal-broadcast assumption of §5.3.5):
	// a transaction published in round r becomes visible to other clients
	// only from round r+RevealDelay on. Publishers always see their own
	// transactions immediately. 0 (default) is the paper's ideal broadcast.
	RevealDelay int
	// Faults, when enabled, applies the deterministic fault schedule of
	// internal/faults to the round grid: scheduled split-and-heal partitions
	// withhold cross-group transactions until their window heals, and clients
	// inside a churn crash window skip their sampled activations. The
	// network-shape fields (Delay, Jitter, DropProb, DupProb) and stragglers
	// describe continuous time and apply to the async engine only; the round
	// engine's delivery granularity remains RevealDelay. Times in the
	// schedule are measured in rounds.
	Faults faults.Config
	// Poison configures the attack scenario (zero value: no attack).
	Poison PoisonConfig
	// Workers bounds the number of goroutines that process the round's
	// sampled clients concurrently. 0 (the default) uses runtime.NumCPU().
	// Results are bit-identical for every worker count: each client derives
	// its randomness from its own split RNG stream, clients share no mutable
	// state during a round (the DAG is only read until round end), and the
	// round result is assembled in the original sampled-client order.
	// Workers == 1 runs the clients inline on the calling goroutine.
	Workers int
	// Pool, when set, is a shared worker budget: the round engine draws its
	// helper goroutines from it instead of spawning freely, so nested
	// fan-outs (an experiment sweep running many simulations, each fanning
	// over clients) never exceed the pool size in total. Workers remains the
	// per-round cap. The tangle draws nothing from it: cumulative weights
	// are swept on the goroutine that asks for them. Results are unaffected
	// — the pool only bounds concurrency.
	Pool *par.Budget
	// Compaction, when enabled, freezes epochs (buckets of Width rounds) of
	// old DAG history out of memory — summaries retained, params optionally
	// spilled to disk — so long runs complete in bounded RSS. Requires
	// ideal broadcast (RevealDelay 0, no fault schedule) and a depth-banded
	// selector; GuardDepth is derived from the selector. Results are
	// byte-identical with compaction on or off.
	Compaction dag.Compaction
	// Seed drives all randomness.
	Seed int64
}

// params extracts the parameters the shared engine body consumes.
func (c Config) params() params {
	return params{
		local: c.Local, arch: c.Arch, selector: c.Selector, referenceWalks: c.ReferenceWalks,
		sharedLayers: c.SharedLayers, gateOff: c.DisablePublishGate, evalOff: c.EvalScope == EvalScopeNone,
		faults: c.Faults, compaction: c.Compaction, workers: c.Workers, pool: c.Pool, seed: c.Seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("core: Rounds must be positive, got %d", c.Rounds)
	}
	if c.ClientsPerRound <= 0 {
		return fmt.Errorf("core: ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	}
	if err := c.params().validate(); err != nil {
		return err
	}
	if c.SharedLayers < 0 || c.SharedLayers > c.Arch.NumLayers() {
		return fmt.Errorf("core: SharedLayers %d outside [0, %d]", c.SharedLayers, c.Arch.NumLayers())
	}
	if c.RevealDelay < 0 {
		return fmt.Errorf("core: RevealDelay must be >= 0, got %d", c.RevealDelay)
	}
	if c.EvalScope < EvalScopeRun || c.EvalScope > EvalScopeNone {
		return fmt.Errorf("core: unknown EvalScope %d", c.EvalScope)
	}
	if p := c.Poison; !(p.Fraction >= 0 && p.Fraction <= 1) { // NaN too
		return fmt.Errorf("core: poison fraction %v outside [0,1]", p.Fraction)
	}
	if c.Poison.StartRound < 0 {
		// The labels flip at round == StartRound, which never comes.
		return fmt.Errorf("core: poison StartRound must be >= 0, got %d", c.Poison.StartRound)
	}
	if c.Compaction.Enabled() && c.RevealDelay > 0 {
		// Partial views let clients approve non-tip transactions, breaking
		// the depth monotonicity the freeze guard relies on.
		return fmt.Errorf("core: Compaction requires ideal broadcast; disable RevealDelay")
	}
	return nil
}

// RoundResult records everything the evaluation needs about one round.
type RoundResult struct {
	Round  int
	Active []int // client IDs activated this round

	// Per active client, aligned with Active:
	TrainedAcc  []float64 // trained model accuracy on local test data
	TrainedLoss []float64
	RefAcc      []float64 // consensus reference accuracy on local test data
	RefLoss     []float64
	Published   []bool
	RefTx       []dag.ID // reference transaction per client

	// FlippedFrac is, per active client, the fraction of test samples whose
	// *original* label is FlipA/FlipB but which the reference model
	// predicts as the respective other label (Fig. 12). Only populated when
	// poisoning tracking is enabled.
	FlippedFrac []float64
	// ActivePoisoned marks which active clients are poisoned, aligned with
	// Active. Only populated when poisoning tracking is enabled.
	ActivePoisoned []bool
	// RefPoisonedApprovals counts poisoned transactions among the reference
	// transaction's ancestors, per active client (Fig. 13).
	RefPoisonedApprovals []int

	// Walk accounting (Fig. 15).
	Walk tipselect.WalkStats
}

// MeanTrainedAcc returns the round's mean trained-model accuracy.
func (r RoundResult) MeanTrainedAcc() float64 { return mean(r.TrainedAcc) }

// MeanTrainedLoss returns the round's mean trained-model loss.
func (r RoundResult) MeanTrainedLoss() float64 { return mean(r.TrainedLoss) }

// MeanFlippedFrac returns the round's mean flipped-prediction fraction.
func (r RoundResult) MeanFlippedFrac() float64 { return mean(r.FlippedFrac) }

// MeanFlippedFracBenign returns the mean flipped-prediction fraction over
// the round's benign (non-poisoned) active clients only — the exposure of
// honest participants to the attack.
func (r RoundResult) MeanFlippedFracBenign() float64 {
	if len(r.ActivePoisoned) != len(r.FlippedFrac) {
		return mean(r.FlippedFrac)
	}
	s, n := 0.0, 0
	for i, frac := range r.FlippedFrac {
		if r.ActivePoisoned[i] {
			continue
		}
		s += frac
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// MeanRefPoisonedApprovals returns the round's mean count of poisoned
// transactions approved (directly or indirectly) by reference transactions.
func (r RoundResult) MeanRefPoisonedApprovals() float64 {
	if len(r.RefPoisonedApprovals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.RefPoisonedApprovals {
		s += float64(v)
	}
	return s / float64(len(r.RefPoisonedApprovals))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Simulation is a running Specializing DAG experiment on the round schedule.
type Simulation struct {
	*body
	cfg     Config
	round   int
	results []RoundResult
	// compactErr is the last round's compaction failure: RunRound cannot
	// return it, so the next Step does, once, before running anything.
	compactErr error
}

// NewSimulation validates inputs and prepares a simulation. The DAG starts
// with a genesis transaction carrying a randomly initialized model.
func NewSimulation(fed *dataset.Federation, cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := newBody(fed, cfg.params(), float64(cfg.Rounds))
	if err != nil {
		return nil, err
	}
	if cfg.ClientsPerRound > len(fed.Clients) {
		return nil, fmt.Errorf("core: ClientsPerRound %d exceeds the federation's %d clients — a round samples without replacement, so reduce ClientsPerRound or enlarge the federation",
			cfg.ClientsPerRound, len(fed.Clients))
	}
	// RevealDelay delays every reveal, and scheduled partitions withhold
	// cross-group transactions; churn alone does not restrict visibility.
	b.partialViews = cfg.RevealDelay > 0 || (b.net != nil && len(cfg.Faults.Partitions) > 0)
	b.resetViews()
	return &Simulation{body: b, cfg: cfg}, nil
}

// Results returns the per-round results recorded so far.
func (s *Simulation) Results() []RoundResult { return s.results }

// Round returns the number of rounds executed so far.
func (s *Simulation) Round() int { return s.round }

// PoisonedClients returns the set of client IDs whose data is poisoned.
func (s *Simulation) PoisonedClients() map[int]bool {
	out := make(map[int]bool)
	for _, c := range s.clients {
		if c.poisoned {
			out[c.id] = true
		}
	}
	return out
}

// ClusterOf returns the ground-truth cluster lookup of the federation.
func (s *Simulation) ClusterOf() map[int]int { return s.fed.ClusterOf() }

// clientOutcome is everything one activated client produces during a round.
// Outcomes are computed concurrently (one per worker) and reduced into the
// RoundResult sequentially, in sampled-client order.
type clientOutcome struct {
	activation              // reference transaction, walk stats and timing
	trainedAcc, trainedLoss float64
	refAcc, refLoss         float64
	flippedFrac             float64
	poisoned                bool
	refPoisonedApprovals    int
	tx                      *pendingTx // nil when the publish gate held it back
}

// runClient executes the four-phase loop of Fig. 1 for one activated client
// on a borrowed scratch model. It only reads shared simulation state (the
// DAG is not mutated until round end) and only writes state owned by this
// client (its eval cache, partial view, and lastParams) or by the scratch, so
// distinct clients can run on distinct goroutines. All randomness comes from
// the client-and-round specific split stream, making the outcome independent
// of scheduling.
func (s *Simulation) runClient(c *client, round int) clientOutcome {
	defer s.giveBack(c, s.borrow(c))
	crng := s.root.SplitIndex("client-round", round*100003+c.id)
	graph := s.graphFor(c, round)
	act := s.walkAverageTrain(c, graph, crng)
	trainedParams := c.model.ParamsCopy()
	if s.personalHead() {
		c.lastParams = trainedParams
	}
	trainedLoss, trainedAcc := c.model.Evaluate(c.testX, c.testY)
	// The reference is scored through the scratch model's buffers without
	// copying its parameters in, so the trained weights stay untouched.
	refLoss, refAcc := c.model.EvaluateParams(act.refParams, c.testX, c.testY)

	out := clientOutcome{
		activation:  act,
		trainedAcc:  trainedAcc,
		trainedLoss: trainedLoss,
		refAcc:      refAcc,
		refLoss:     refLoss,
	}
	if s.publishes(trainedAcc, trainedLoss, refAcc, refLoss) {
		tx := c.publication(act, trainedParams, trainedAcc)
		out.tx = &tx
	}
	if s.cfg.Poison.Enabled() {
		out.flippedFrac = c.flippedFraction(act.refParams, s.cfg.Poison)
		out.poisoned = c.poisoned
		out.refPoisonedApprovals = metrics.PoisonedApprovals(s.tangle, act.refTx)
	}
	return out
}

// RunRound executes a single round and returns its result.
//
// The round's sampled clients are processed by a pool of cfg.Workers
// goroutines. Clients are concurrent actors in the paper's model — all of
// them observe the DAG state from the start of the round and their publishes
// land together at round end — so the parallel schedule is semantically the
// sequential one, and the split-RNG discipline makes it numerically the
// sequential one too.
func (s *Simulation) RunRound() RoundResult {
	round := s.round
	s.maybeActivatePoisoning(round)

	sampler := s.root.SplitIndex("round-sample", round)
	idxs := sampler.SampleWithoutReplacement(len(s.clients), s.cfg.ClientsPerRound)

	// Clients inside a churn crash window skip their sampled activation (the
	// filter runs before the fan-out, so the schedule stays worker-count
	// invariant; an all-crashed round simply publishes nothing).
	if s.net != nil {
		kept := idxs[:0]
		for _, ci := range idxs {
			if !s.net.Crashed(s.clients[ci].id, float64(round)) {
				kept = append(kept, ci)
			}
		}
		idxs = kept
	}

	// Fan out: one outcome slot per sampled client. SampleWithoutReplacement
	// yields distinct clients, so no client state is shared between workers.
	outs := make([]clientOutcome, len(idxs))
	par.ForEachIn(s.pool, s.workers, len(idxs), func(i int) {
		outs[i] = s.runClient(s.clients[idxs[i]], round)
	})

	// Reduce sequentially in sampled order: the result slices and the
	// pending publish list are identical to what the sequential loop built.
	res := RoundResult{Round: round}
	var pending []pendingTx
	trackPoison := s.cfg.Poison.Enabled()
	for i, out := range outs {
		c := s.clients[idxs[i]]
		if out.tx != nil {
			pending = append(pending, *out.tx)
		}
		res.Active = append(res.Active, c.id)
		res.TrainedAcc = append(res.TrainedAcc, out.trainedAcc)
		res.TrainedLoss = append(res.TrainedLoss, out.trainedLoss)
		res.RefAcc = append(res.RefAcc, out.refAcc)
		res.RefLoss = append(res.RefLoss, out.refLoss)
		res.Published = append(res.Published, out.tx != nil)
		res.RefTx = append(res.RefTx, out.refTx)
		res.Walk.Add(out.stats)
		if trackPoison {
			res.FlippedFrac = append(res.FlippedFrac, out.flippedFrac)
			res.ActivePoisoned = append(res.ActivePoisoned, out.poisoned)
			res.RefPoisonedApprovals = append(res.RefPoisonedApprovals, out.refPoisonedApprovals)
		}
	}

	// Random-weight attackers publish after honest clients selected tips but
	// their transactions land in the same round.
	if n := s.cfg.Poison.RandomAttackers; n > 0 && round >= s.cfg.Poison.StartRound {
		arng := s.root.SplitIndex("attacker", round)
		tipIDs := s.tangle.Tips()
		for a := 0; a < n; a++ {
			params := arng.NormalVec(s.arch.NumParams(), 0, 1)
			p1 := tipIDs[arng.Intn(len(tipIDs))]
			p2 := tipIDs[arng.Intn(len(tipIDs))]
			pending = append(pending, pendingTx{
				issuer:  -1000 - a, // attacker IDs outside the client space
				parents: []dag.ID{p1, p2},
				params:  params,
				meta:    dag.Meta{Poisoned: true},
			})
		}
	}

	// Apply all publishes at the end of the round (concurrent semantics).
	for _, p := range pending {
		s.deliver(p, round)
	}

	s.compactErr = s.compact(round)

	s.results = append(s.results, res)
	s.round++
	return res
}

// graphFor returns the tangle view the client walks over this round: the
// full DAG under ideal broadcast, or the client's partial view with all
// sufficiently old (or own) transactions revealed — minus whatever a live
// partition window still withholds from this client.
func (s *Simulation) graphFor(c *client, round int) tipselect.Graph {
	if c.view == nil {
		return s.tangle
	}
	horizon := round - s.cfg.RevealDelay
	c.view.RevealWhere(func(tx *dag.Transaction) bool {
		if tx.Issuer == c.id {
			return true
		}
		if tx.Round > horizon {
			return false
		}
		// A transaction published inside a partition window that separates
		// publisher and observer stays hidden until the window heals. The
		// predicate is monotone in the round counter, so views reconstruct
		// identically after a checkpoint resume.
		return s.net == nil || !s.net.PartitionDeferred(float64(tx.Round), tx.Issuer, c.id, float64(round))
	})
	return c.view
}

// flippedFraction measures the fraction of the client's test samples whose
// original label is FlipA (resp. FlipB) but which the given model predicts
// as FlipB (resp. FlipA).
func (c *client) flippedFraction(params []float64, p PoisonConfig) float64 {
	if p.FlipA == p.FlipB {
		return 0
	}
	c.model.SetParams(params)
	flipped, total := 0, 0
	for i := 0; i < c.testX.Rows; i++ {
		orig := c.origTestY[i]
		if orig != p.FlipA && orig != p.FlipB {
			continue
		}
		total++
		pred := c.model.Predict(c.testX.Row(i))
		if (orig == p.FlipA && pred == p.FlipB) || (orig == p.FlipB && pred == p.FlipA) {
			flipped++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(flipped) / float64(total)
}

// maybeActivatePoisoning flips labels for the configured fraction of clients
// at the attack start round.
func (s *Simulation) maybeActivatePoisoning(round int) {
	p := s.cfg.Poison
	if p.Fraction <= 0 || round != p.StartRound {
		return
	}
	prng := s.root.Split("poison")
	n := int(p.Fraction * float64(len(s.clients)))
	for _, ci := range prng.SampleWithoutReplacement(len(s.clients), n) {
		c := s.clients[ci]
		c.poisoned = true
		flipLabels(c.trainY, p.FlipA, p.FlipB)
		flipLabels(c.testY, p.FlipA, p.FlipB)
		// Test data changed: cached accuracies are stale.
		c.eval = s.newEvalFor(c)
	}
}

func flipLabels(ys []int, a, b int) {
	for i, y := range ys {
		switch y {
		case a:
			ys[i] = b
		case b:
			ys[i] = a
		}
	}
}
