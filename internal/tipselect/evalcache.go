package tipselect

import (
	"sync"
	"sync/atomic"

	"github.com/specdag/specdag/internal/dag"
)

// EvalCache is the shared evaluation cache of the walk hot path: one cache
// per (client, scope) holds the accuracies of every transaction the client's
// walkers have scored, so the tip-walk/ReferenceWalks fan-out of a round
// never evaluates the same transaction twice (core.Config.EvalScope chooses
// the scope).
//
// An EvalCache is safe for concurrent use: lookups
// take a read lock, misses are inserted under the write lock, and the
// hit/miss counters are atomic. Scoring itself is serialized — at most one
// goroutine runs Score/ScoreBatch at a time, with a cache re-check after
// acquiring the scoring lock — so a scorer need not be safe for concurrent
// use: the engines' scorers run on the scratch model their client's current
// activation borrowed. There a client's walks run one after another and the
// lock is never contended; it is what keeps a cache shared by concurrent
// walkers correct. Hits never touch the scoring lock, so concurrent walkers
// only serialize on genuinely new transactions.
//
// Accuracies are pure per-transaction values (published parameters are
// immutable, local test data fixed), so a cache may live as long as the test
// split it scores against; an owner whose data changes (label poisoning)
// swaps in a fresh cache.
type EvalCache struct {
	// Score evaluates one parameter vector. Required.
	Score func(params []float64) float64
	// ScoreBatch evaluates several parameter vectors at once, aligned with
	// the input. Optional: when nil, misses fall back to Score in a loop.
	ScoreBatch func(params [][]float64) []float64
	// Disable turns caching off: every call scores afresh (the paper
	// prototype's cost profile, used by the Fig. 15 scalability experiment).
	Disable bool

	mu sync.RWMutex
	// The cache is indexed by transaction ID — IDs are dense small ints
	// (the DAG allocates them sequentially), so a flat slice replaces the
	// former map: hits cost one bounds check and two loads instead of a
	// hash probe on the walk hot path. Slot i holds transaction floor+i;
	// floor is 0 until epoch compaction calls Advance, after which frozen
	// IDs below it are permanent misses (walks never score them).
	floor dag.ID
	have  []bool
	vals  []float64
	// stepWeights memoizes, per transaction, the walk-selection weight
	// vector computed for a given child count (see StepWeights).
	stepWeights []weightsEntry
	// scoreMu serializes Score/ScoreBatch calls: a scorer (the engines' run
	// on one borrowed scratch model) need not be safe for concurrent use.
	scoreMu sync.Mutex

	hits   atomic.Int64
	misses atomic.Int64
}

var _ Evaluator = (*EvalCache)(nil)

// NewEvalCache returns an EvalCache around the given scorers. scoreBatch may
// be nil.
func NewEvalCache(score func(params []float64) float64, scoreBatch func(params [][]float64) []float64) *EvalCache {
	return &EvalCache{Score: score, ScoreBatch: scoreBatch}
}

// get reads the cached accuracy of id, if present. Callers hold mu.
func (e *EvalCache) get(id dag.ID) (float64, bool) {
	i := int(id - e.floor)
	if i >= 0 && i < len(e.have) && e.have[i] {
		return e.vals[i], true
	}
	return 0, false
}

// put records the accuracy of id. Callers hold mu for writing.
func (e *EvalCache) put(id dag.ID, acc float64) {
	i := int(id - e.floor)
	if i < 0 {
		return // frozen transaction: never cached
	}
	if i >= len(e.have) {
		n := i + 1
		if n < 2*len(e.have) {
			n = 2 * len(e.have)
		}
		have := make([]bool, n)
		copy(have, e.have)
		vals := make([]float64, n)
		copy(vals, e.vals)
		e.have, e.vals = have, vals
	}
	e.have[i] = true
	e.vals[i] = acc
}

// weightsEntry is one memoized selection-weight vector: valid while its
// transaction still has n children and the walk still uses the same weight
// parameters.
type weightsEntry struct {
	n     int
	alpha float64
	norm  Normalization
	w     []float64
}

// StepWeights returns the memoized tip-selection weights of transaction id
// for its current child count and walk parameters, calling compute on a
// miss and caching the result. A transaction's weights are a pure function
// of its ordered child set (append-only, so a given count always denotes
// the same set), the walker's cached child accuracies, and (alpha, norm) —
// all part of the key — so a hit returns exactly what compute would. When
// Disable is set every
// call computes afresh, preserving the no-caching cost profile. compute
// must return a slice the cache may retain.
func (e *EvalCache) StepWeights(id dag.ID, nChildren int, alpha float64, norm Normalization, compute func() []float64) []float64 {
	if e.Disable {
		return compute()
	}
	e.mu.RLock()
	if i := int(id - e.floor); i >= 0 && i < len(e.stepWeights) {
		if ent := e.stepWeights[i]; ent.w != nil && ent.n == nChildren && ent.alpha == alpha && ent.norm == norm {
			e.mu.RUnlock()
			return ent.w
		}
	}
	e.mu.RUnlock()
	w := compute()
	e.mu.Lock()
	i := int(id - e.floor)
	if i < 0 {
		// Frozen transaction: never memoized.
		e.mu.Unlock()
		return w
	}
	if i >= len(e.stepWeights) {
		n := i + 1
		if n < 2*len(e.stepWeights) {
			n = 2 * len(e.stepWeights)
		}
		grown := make([]weightsEntry, n)
		copy(grown, e.stepWeights)
		e.stepWeights = grown
	}
	e.stepWeights[i] = weightsEntry{n: nChildren, alpha: alpha, norm: norm, w: w}
	e.mu.Unlock()
	return w
}

// Advance rebases the dense index to a new live floor after epoch
// compaction: entries for frozen transactions are dropped and the retained
// suffix moves into freshly allocated live-sized storage, so the cache's
// footprint tracks the live suffix rather than the lifetime maximum.
// Frozen IDs become permanent misses — the compaction guard ensures walks
// never score them.
func (e *EvalCache) Advance(floor dag.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if floor <= e.floor {
		return
	}
	shift := int(floor - e.floor)
	if shift >= len(e.have) {
		e.have, e.vals = nil, nil
	} else {
		e.have = append([]bool(nil), e.have[shift:]...)
		e.vals = append([]float64(nil), e.vals[shift:]...)
	}
	if shift >= len(e.stepWeights) {
		e.stepWeights = nil
	} else {
		e.stepWeights = append([]weightsEntry(nil), e.stepWeights[shift:]...)
	}
	e.floor = floor
}

// Hits returns the number of cache hits so far.
func (e *EvalCache) Hits() int { return int(e.hits.Load()) }

// Misses returns the number of scoring calls (cache misses) so far.
func (e *EvalCache) Misses() int { return int(e.misses.Load()) }

// Accuracy implements Evaluator.
func (e *EvalCache) Accuracy(tx *dag.Transaction) float64 {
	if e.Disable {
		e.scoreMu.Lock()
		defer e.scoreMu.Unlock()
		e.misses.Add(1)
		return e.Score(tx.Params)
	}
	e.mu.RLock()
	acc, ok := e.get(tx.ID)
	e.mu.RUnlock()
	if ok {
		e.hits.Add(1)
		return acc
	}
	e.scoreMu.Lock()
	defer e.scoreMu.Unlock()
	// Re-check: a concurrent walker may have scored tx while we waited.
	e.mu.RLock()
	acc, ok = e.get(tx.ID)
	e.mu.RUnlock()
	if ok {
		e.hits.Add(1)
		return acc
	}
	e.misses.Add(1)
	acc = e.Score(tx.Params)
	e.mu.Lock()
	e.put(tx.ID, acc)
	e.mu.Unlock()
	return acc
}

// AccuracyManyInto appends the accuracy of each transaction to dst (which
// may be nil) and returns it; the values equal Accuracy's per transaction.
// At every step of an accuracy walk all children of the current transaction
// are scored together: one lookup pass under a single read lock, then one
// batched scoring call (nn.AccuracyManyInto behind ScoreBatch) for the misses —
// serialized, with a re-check, like Accuracy — instead of per-child
// SetParams+Evaluate round trips, into a buffer the walk reuses across steps.
func (e *EvalCache) AccuracyManyInto(dst []float64, txs []*dag.Transaction) []float64 {
	start := len(dst)
	for range txs {
		dst = append(dst, 0)
	}
	accs := dst[start:]
	e.accuracyMany(accs, txs)
	return dst
}

// accuracyMany fills accs (len(txs) zeroed slots) with the transactions'
// accuracies.
func (e *EvalCache) accuracyMany(accs []float64, txs []*dag.Transaction) {
	if e.Disable {
		e.scoreMu.Lock()
		defer e.scoreMu.Unlock()
		e.misses.Add(int64(len(txs)))
		e.scoreInto(accs, txs, nil)
		return
	}

	// Lookup pass. missIdx collects the positions still unscored.
	missIdx := e.lookup(accs, txs, nil)
	e.hits.Add(int64(len(txs) - len(missIdx)))
	if len(missIdx) == 0 {
		return
	}
	e.scoreMu.Lock()
	defer e.scoreMu.Unlock()
	// Re-check: a concurrent walker may have scored some misses while we
	// waited for the scoring lock.
	stillMissing := e.lookup(accs, txs, missIdx)
	e.hits.Add(int64(len(missIdx) - len(stillMissing)))
	if len(stillMissing) == 0 {
		return
	}
	e.misses.Add(int64(len(stillMissing)))
	e.scoreInto(accs, txs, stillMissing)
	e.mu.Lock()
	for _, i := range stillMissing {
		e.put(txs[i].ID, accs[i])
	}
	e.mu.Unlock()
}

// lookup fills accs from the cache for the given positions (all when idx is
// nil) and returns the positions still missing.
func (e *EvalCache) lookup(accs []float64, txs []*dag.Transaction, idx []int) []int {
	var missing []int
	e.mu.RLock()
	if idx == nil {
		for i, tx := range txs {
			if acc, ok := e.get(tx.ID); ok {
				accs[i] = acc
			} else {
				missing = append(missing, i)
			}
		}
	} else {
		for _, i := range idx {
			if acc, ok := e.get(txs[i].ID); ok {
				accs[i] = acc
			} else {
				missing = append(missing, i)
			}
		}
	}
	e.mu.RUnlock()
	return missing
}

// scoreInto fills accs for the given positions (all positions when idx is
// nil) using the batch scorer when available.
func (e *EvalCache) scoreInto(accs []float64, txs []*dag.Transaction, idx []int) {
	if idx == nil {
		idx = make([]int, len(txs))
		for i := range idx {
			idx[i] = i
		}
	}
	if e.ScoreBatch != nil && len(idx) > 1 {
		params := make([][]float64, len(idx))
		for k, i := range idx {
			params[k] = txs[i].Params
		}
		for k, acc := range e.ScoreBatch(params) {
			accs[idx[k]] = acc
		}
		return
	}
	for _, i := range idx {
		accs[i] = e.Score(txs[i].Params)
	}
}
