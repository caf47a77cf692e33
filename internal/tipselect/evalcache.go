package tipselect

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/specdag/specdag/internal/dag"
)

// EvalCache is the shared evaluation cache of the walk hot path: one cache
// per (client, scope) holds the accuracies of every transaction the client's
// walkers have scored, so the tip-walk/ReferenceWalks fan-out of a round
// never evaluates the same transaction twice (core.Config.EvalScope chooses
// the scope), and the weight vector of every step they took (StepWeights).
// Its footprint is one 16-byte pointer-free slot per transaction from the
// floor to the highest ID it has seen, plus one float64 per memoized weight.
//
// An EvalCache is safe for concurrent use: lookups take a read lock, misses
// are inserted under the write lock, and the hit/miss counters are atomic.
// Scoring itself is serialized — at most one goroutine runs Score/ScoreBatch
// at a time, with a cache re-check after acquiring the scoring lock — so a
// scorer need not be safe for concurrent use: the engines' scorers run on
// the scratch model their client's current activation borrowed. There a
// client's walks run one after another and the lock is never contended; it
// is what keeps a cache shared by concurrent walkers correct. Hits never
// touch the scoring lock, so concurrent walkers only serialize on genuinely
// new transactions.
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
	// (the DAG allocates them sequentially), so a flat slice replaces a map:
	// hits cost one bounds check and two loads on the walk hot path. Slot i
	// holds transaction floor+i; floor is 0 until epoch compaction calls
	// Advance, after which frozen IDs below it are permanent misses.
	floor dag.ID
	slots []slot
	// arena holds the memoized weight vectors back to back, all computed
	// under (alpha, norm). It, alpha, norm and floor change only under
	// weightMu, which serializes weight computes (they append to the
	// arena's spare capacity). Lock order: weightMu, scoreMu, mu.
	arena    []float64
	alpha    float64
	norm     Normalization
	weightMu sync.Mutex
	// scoreMu serializes Score/ScoreBatch calls: a scorer (the engines' run
	// on one borrowed scratch model) need not be safe for concurrent use.
	scoreMu sync.Mutex

	hits   atomic.Int64
	misses atomic.Int64
}

// slot is one transaction's entry: its accuracy once scored, and its weight
// vector arena[off:off+n] when one is memoized (n > 0).
type slot struct {
	acc    float64
	off    uint32
	n      uint16
	scored bool
}

var _ Evaluator = (*EvalCache)(nil)

// NewEvalCache returns an EvalCache around the given scorers. scoreBatch may
// be nil.
func NewEvalCache(score func(params []float64) float64, scoreBatch func(params [][]float64) []float64) *EvalCache {
	return &EvalCache{Score: score, ScoreBatch: scoreBatch}
}

// get reads the cached accuracy of id, if present. Callers hold mu.
func (e *EvalCache) get(id dag.ID) (float64, bool) {
	if i := int(id - e.floor); i >= 0 && i < len(e.slots) && e.slots[i].scored {
		return e.slots[i].acc, true
	}
	return 0, false
}

// at returns the slot of id, growing the index the way append grows a
// slice, or nil for a frozen transaction (never cached). Callers hold mu for
// writing.
func (e *EvalCache) at(id dag.ID) *slot {
	i := int(id - e.floor)
	if i < 0 {
		return nil
	}
	if i >= len(e.slots) {
		e.slots = append(e.slots, make([]slot, i+1-len(e.slots))...)
	}
	return &e.slots[i]
}

// put records the accuracy of id. Callers hold mu for writing.
func (e *EvalCache) put(id dag.ID, acc float64) {
	if s := e.at(id); s != nil {
		s.acc, s.scored = acc, true
	}
}

// StepWeights returns the memoized tip-selection weights of transaction id
// for its current child count and walk parameters, calling compute on a
// miss. A transaction's weights are a pure function of its ordered child
// set (append-only, so a given count always denotes the same set), the
// walker's cached child accuracies, and (alpha, norm), so a hit returns
// exactly what compute would. compute appends nChildren weights to dst and
// returns the result; on a miss dst is the cache's arena, so storing a
// vector allocates only when the arena grows. The memo holds one (alpha,
// norm) at a time: a miss under other parameters starts a fresh arena. A
// NaN alpha, more children than a slot records (65 535) and Disable compute
// into a nil dst without storing; a frozen transaction is not stored. The
// returned slice is capacity-limited and the cache never rewrites it.
func (e *EvalCache) StepWeights(id dag.ID, nChildren int, alpha float64, norm Normalization, compute func(dst []float64) []float64) []float64 {
	if e.Disable || alpha != alpha || nChildren > math.MaxUint16 {
		return compute(nil)
	}
	if w, ok := e.weights(id, nChildren, alpha, norm); ok {
		return w
	}
	e.weightMu.Lock()
	defer e.weightMu.Unlock()
	// Re-check: a concurrent walker may have stored it while we waited.
	if w, ok := e.weights(id, nChildren, alpha, norm); ok {
		return w
	}
	if alpha != e.alpha || norm != e.norm || uint64(len(e.arena)+nChildren) > math.MaxUint32 {
		e.mu.Lock()
		for i := range e.slots {
			e.slots[i].n = 0
		}
		e.arena, e.alpha, e.norm = nil, alpha, norm
		e.mu.Unlock()
	}
	arena := compute(e.arena)
	off := len(arena) - nChildren
	e.mu.Lock()
	defer e.mu.Unlock()
	e.arena = arena
	if s := e.at(id); s != nil {
		s.off, s.n = uint32(off), uint16(nChildren)
	}
	return arena[off:len(arena):len(arena)]
}

// weights returns the memoized vector of id if it was computed for
// nChildren children under (alpha, norm).
func (e *EvalCache) weights(id dag.ID, nChildren int, alpha float64, norm Normalization) ([]float64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if i := int(id - e.floor); i >= 0 && i < len(e.slots) && alpha == e.alpha && norm == e.norm {
		if s := e.slots[i]; s.n > 0 && int(s.n) == nChildren {
			return e.arena[s.off : s.off+uint32(s.n) : s.off+uint32(s.n)], true
		}
	}
	return nil, false
}

// Advance rebases the index to a new live floor after epoch compaction: the
// slots of frozen transactions are dropped, and the live slots and their
// weight vectors are copied into fresh storage (leaving behind the vectors
// superseded when a child count grew), so the cache's footprint tracks the
// live suffix rather than the lifetime maximum. Slices StepWeights handed
// out keep their values. Frozen IDs become permanent misses — the
// compaction guard ensures walks never score them.
func (e *EvalCache) Advance(floor dag.ID) {
	e.weightMu.Lock()
	defer e.weightMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if floor <= e.floor {
		return
	}
	var live []slot
	if shift := int(floor - e.floor); shift < len(e.slots) {
		live = append(live, e.slots[shift:]...)
	}
	var arena []float64
	for i, s := range live {
		if s.n > 0 {
			live[i].off = uint32(len(arena))
			arena = append(arena, e.arena[s.off:s.off+uint32(s.n)]...)
		}
	}
	e.slots, e.arena, e.floor = live, arena, floor
}

// Hits returns the number of cache hits so far.
func (e *EvalCache) Hits() int { return int(e.hits.Load()) }

// Misses returns the number of scoring calls (cache misses) so far.
func (e *EvalCache) Misses() int { return int(e.misses.Load()) }

// Accuracy implements Evaluator: it is AccuracyManyInto of one transaction.
func (e *EvalCache) Accuracy(tx *dag.Transaction) float64 {
	var acc [1]float64
	e.accuracyMany(acc[:], []*dag.Transaction{tx})
	return acc[0]
}

// AccuracyManyInto appends the accuracy of each transaction to dst (which
// may be nil) and returns it; the values equal Accuracy's per transaction.
// At every step of an accuracy walk all children of the current transaction
// are scored together: one lookup pass under a single read lock, then one
// batched scoring call (nn.AccuracyManyInto behind ScoreBatch) for the misses —
// serialized, with a re-check — instead of per-child
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
	defer e.mu.RUnlock()
	for k := range txs {
		i := k
		if idx != nil {
			if k == len(idx) {
				break
			}
			i = idx[k]
		}
		if acc, ok := e.get(txs[i].ID); ok {
			accs[i] = acc
		} else {
			missing = append(missing, i)
		}
	}
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
