// Package dag implements the tangle substrate of the specializing DAG: a
// directed acyclic graph of transactions, each carrying a full set of model
// weights and approving (pointing at) one or two earlier transactions.
//
// The structure follows Popov's tangle as adapted by the paper (§4.1):
// nodes of the graph are model weight updates, edges are approvals, tips are
// transactions that have not received approvals yet. Acyclicity holds by
// construction because a transaction may only approve transactions that
// already exist.
//
// The DAG is safe for concurrent use, and the read side of the walk hot path
// is lock-free: the transaction list and the children index are published
// through atomic snapshots (see childIndex), so Get/MustGet/Genesis/Size/
// All/Ancestors/Children/NumChildren/CumulativeWeights never block — any
// number of walker goroutines proceed without touching a lock, even while
// Add is running. Add serializes writers behind an internal mutex; only the
// tip set (Tips, IsTip, and the depth helpers that start from it) still
// reads under an RLock, off the per-step hot path. Transactions are
// immutable after insertion and returned by pointer, so reads of a
// Transaction's fields need no lock at all.
//
// Each notion of the tangle has one implementation, parameterised by data
// and shared by the full DAG, the live suffix above the compaction floor,
// a frozen epoch, a partial-visibility View and an Overlay of transactions
// not added yet:
//
//   - tips are one ascending idSet (DAG.tips, View.tips, Overlay.tips): a new
//     transaction's ID is the largest, so insertion is an append and
//     readers copy instead of sorting;
//   - depth is one bounded breadth-first search along approval edges from a
//     root set (denseSearch.run), on dense arrays: depth by ID in a
//     generation-stamped array that is reused and never cleared, the queue
//     doubling as the visit order — no map, except the one Depths builds for
//     its callers. The walk entry of §5.3.5 is one candidate draw over it
//     (drawAtDepth), and DAG.SampleAtDepth memoizes the band it draws from
//     per tangle state beside the cumulative-weights memo it mirrors: Add
//     only appends and moves the tip set under the same lock, so the
//     snapshot length determines the tips, hence the depths, hence the
//     band. The compaction freeze guard starts from that same search and
//     memoizes its verdict on the transaction count (guardRoundLocked);
//   - cumulative weight is one reverse-topological bitset sweep over an ID
//     range with an optional visibility mask (sweepWeights), run on the
//     caller's goroutine for the whole DAG, the live suffix, a View, an
//     Overlay and a freezing epoch alike;
//   - the approval index is one append-mostly array with lock-free readers
//     (childIndex);
//   - the SDG1 snapshot and the SDS1 epoch spill are one record stream under
//     two magics, and every binary format of the module — those two, the
//     checkpoints' state section and SDE2 event frames — is walked by one
//     Codec (walk.go): one layout function per format drives the counter,
//     the writer and the reader (Codec.header, Codec.record for the records).
package dag

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/xrand"
)

// ID identifies a transaction within one DAG. IDs are assigned sequentially
// starting at 0 (the genesis transaction).
type ID int

// GenesisIssuer is the Issuer value of the genesis transaction.
const GenesisIssuer = -1

// Meta carries experiment bookkeeping attached to a transaction. It is not
// interpreted by the DAG itself.
type Meta struct {
	// TrainAcc and TestAcc are the publisher's local accuracies at publish
	// time (informational).
	TrainAcc float64
	TestAcc  float64
	// Poisoned marks transactions published from poisoned data. It is used
	// only by the evaluation metrics (Fig. 12-14), never by the protocol.
	Poisoned bool
}

// Transaction is a node of the DAG: one published model update.
// Transactions are immutable after insertion; callers must not modify
// Params or Parents.
type Transaction struct {
	ID      ID
	Issuer  int // publishing client, or GenesisIssuer
	Round   int // simulation round at publish time
	Parents []ID
	Params  []float64 // flat model weights
	Meta    Meta
}

// IsGenesis reports whether t is the genesis transaction.
func (t *Transaction) IsGenesis() bool { return t.Issuer == GenesisIssuer }

// DAG is a thread-safe tangle of model-update transactions.
type DAG struct {
	mu   sync.RWMutex   // serializes Add; guards tips
	txs  []*Transaction // writer's working slice (index = ID; insertion order is topological)
	snap atomic.Pointer[[]*Transaction]
	kids childIndex
	tips idSet

	// cwCache memoizes the last CumulativeWeights result. The DAG is
	// append-only, so the size of the snapshot fully determines the weights:
	// within a simulation round (tangle frozen) every walker reuses one
	// sweep instead of recomputing an identical map per walk.
	cwCache atomic.Pointer[cwCacheEntry]
	// bandMemo memoizes the last SampleAtDepth entry band the same way (see
	// SampleAtDepth). depthMu serializes its fillers and, for holders of
	// mu's read side, guards tipSearch: the depth search from all tips that
	// tipSearchN/tipSearchMax (snapshot size, bound) say it still holds.
	bandMemo     atomic.Pointer[depthBand]
	depthMu      sync.Mutex
	tipSearch    denseSearch
	tipSearchN   int
	tipSearchMax int

	// Epoch compaction state (see epoch.go). comp, frozen and
	// lastFrozenEpoch are guarded by mu; floor mirrors the first live ID
	// for lock-free readers and only ever advances.
	comp            Compaction
	frozen          []EpochSummary
	lastFrozenEpoch int
	floor           atomic.Int64
	// guardRound memoizes the freeze guard's verdict for a tangle of guardN
	// transactions (0: none); guardAux is the dead-tip analysis' scratch.
	// All guarded by mu's write side.
	guardN     int
	guardRound int
	guardAux   [2]denseSearch
}

// cwCacheEntry pairs a weights map with the snapshot size and compaction
// floor it was computed for. The map is shared by all readers and must not
// be modified.
type cwCacheEntry struct {
	n       int
	floor   ID
	weights map[ID]int
}

// New creates a DAG containing only a genesis transaction that carries the
// given initial model parameters.
func New(genesisParams []float64) *DAG {
	d := &DAG{lastFrozenEpoch: -1}
	g := &Transaction{ID: 0, Issuer: GenesisIssuer, Round: -1, Params: genesisParams}
	d.txs = append(d.txs, g)
	d.publish()
	d.tips.add(0)
	return d
}

// SetParallelism does nothing: every cumulative weight is one sequential
// sweep on the caller's goroutine, and concurrency lives in the engines that
// call the DAG. It remains only because the benchmark harness under bench/
// still calls it; ROADMAP item 3a removes that call and then this method.
func (d *DAG) SetParallelism(*par.Budget, int) {}

// publish makes the current txs slice visible to lock-free readers. Caller
// must hold d.mu (or own the DAG exclusively, as in New).
func (d *DAG) publish() {
	s := d.txs
	d.snap.Store(&s)
}

// snapshot returns the current immutable transaction list without locking.
func (d *DAG) snapshot() []*Transaction {
	return *d.snap.Load()
}

// Genesis returns the genesis transaction.
func (d *DAG) Genesis() *Transaction {
	return d.snapshot()[0]
}

// Add publishes a new transaction approving the given parents and returns
// it. Parents must reference existing transactions; one or two parents are
// accepted (a client approves the same transaction twice when the DAG offers
// only one tip). Add never creates a cycle because parents must already
// exist.
func (d *DAG) Add(issuer, round int, parents []ID, params []float64, meta Meta) (*Transaction, error) {
	if len(parents) < 1 || len(parents) > 2 {
		return nil, fmt.Errorf("dag: transaction must approve 1 or 2 parents, got %d", len(parents))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range parents {
		if p < 0 || int(p) >= len(d.txs) {
			return nil, fmt.Errorf("dag: unknown parent %d", p)
		}
	}
	t := &Transaction{
		ID:      ID(len(d.txs)),
		Issuer:  issuer,
		Round:   round,
		Parents: append([]ID(nil), parents...),
		Params:  params,
		Meta:    meta,
	}
	d.txs = append(d.txs, t)
	d.publish()
	for i, p := range parents {
		if i > 0 && p == parents[0] {
			continue // approving the same parent twice adds one child edge
		}
		d.kids.appendChild(p, t.ID)
		d.tips.remove(p)
	}
	d.tips.add(t.ID)
	return t, nil
}

// Get returns the transaction with the given ID. Lock-free.
func (d *DAG) Get(id ID) (*Transaction, bool) {
	txs := d.snapshot()
	if id < 0 || int(id) >= len(txs) {
		return nil, false
	}
	return txs[id], true
}

// MustGet returns the transaction with the given ID and panics if absent.
// Use only with IDs previously returned by this DAG. Lock-free.
func (d *DAG) MustGet(id ID) *Transaction {
	t, ok := d.Get(id)
	if !ok {
		panic(fmt.Sprintf("dag: no transaction %d", id))
	}
	return t
}

// Size returns the number of transactions including genesis. Lock-free.
func (d *DAG) Size() int {
	return len(d.snapshot())
}

// Children returns the IDs of transactions approving id, in insertion order.
// The returned slice is an immutable snapshot: it never changes, even if id
// acquires more children later, and callers must not modify it. Lock-free.
func (d *DAG) Children(id ID) []ID {
	return d.kids.children(id)
}

// NumChildren returns the number of direct approvers of id. Lock-free.
func (d *DAG) NumChildren(id ID) int {
	return d.kids.numChildren(id)
}

// IsTip reports whether id has no approvers yet.
func (d *DAG) IsTip(id ID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tips.has(id)
}

// Tips returns the current tip IDs in ascending order.
func (d *DAG) Tips() []ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tips.ids()
}

// frontier returns the transaction list and the tip set of one instant: Add
// updates both under the write lock, so every tip ID is covered by txs. The
// tips are copied into tips' storage (which may be nil).
func (d *DAG) frontier(tips idSet) ([]*Transaction, idSet) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.snapshot(), append(tips[:0], d.tips...)
}

// All returns all transactions in insertion (topological) order.
// The returned slice is a copy; the transactions are shared. Lock-free.
func (d *DAG) All() []*Transaction {
	return append([]*Transaction(nil), d.snapshot()...)
}

// Ancestors returns the set of all transactions reachable from id via
// parent (approval) edges, excluding id itself. Lock-free.
func (d *DAG) Ancestors(id ID) map[ID]struct{} {
	txs := d.snapshot()
	out := make(map[ID]struct{})
	stack := append([]ID(nil), txs[id].Parents...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := out[cur]; seen {
			continue
		}
		out[cur] = struct{}{}
		stack = append(stack, txs[cur].Parents...)
	}
	return out
}

// CumulativeWeights returns, for every transaction, the number of
// transactions that approve it directly or indirectly, plus one for itself —
// the classic tangle weight of Fig. 3. Computed in O(V*E/64) with bitsets.
// The returned map is shared between callers and must not be modified.
//
// The result is memoized per snapshot size (the DAG is append-only, so the
// size determines the weights): the many walkers of one frozen-tangle round
// share a single sweep. A cache miss runs sweepWeights over the live
// suffix of the consistent snapshot taken at call time, on the caller's
// goroutine.
func (d *DAG) CumulativeWeights() map[ID]int {
	txs := d.snapshot()
	n := len(txs)
	floor := ID(d.floor.Load())
	if e := d.cwCache.Load(); e != nil && e.n == n && e.floor == floor {
		return e.weights
	}
	weights := weightMap(floor, sweepWeights(txs, floor, ID(n), nil))
	// Concurrent fillers compute identical maps; last store wins.
	d.cwCache.Store(&cwCacheEntry{n: n, floor: floor, weights: weights})
	return weights
}

// sweepWeights is the approver sweep behind every cumulative weight in the
// package: for the transactions txs[lo:hi] it returns, at index id-lo, one
// plus the number of transactions of that range approving id directly or
// indirectly. With a non-nil visible mask only visible transactions count
// and are counted (the mask must be parent-closed, as a View's is);
// invisible ones report 0.
//
// It walks the range in reverse insertion order — children before parents —
// OR-ing each transaction's approver bitset into its parents', O(V·E/64).
// Children always carry larger IDs than their parents, so restricting the
// sweep to an ID range loses nothing above it: over the live suffix
// [floor, n) the result equals the full-DAG weights of those transactions
// exactly (every approver of a live transaction is itself live), and over a
// frozen epoch's [first, last] it is the weight confirmed by frozen history.
func sweepWeights(txs []*Transaction, lo, hi ID, visible map[ID]bool) []int {
	m := int(hi - lo)
	approvers := newBitsets(m)
	counts := make([]int, m)
	for i := m - 1; i >= 0; i-- {
		t := txs[int(lo)+i]
		if visible != nil && !visible[t.ID] {
			continue
		}
		src := approvers[i]
		counts[i] = 1 + popcountSet(src)
		for _, p := range t.Parents {
			if p < lo {
				continue
			}
			dst := approvers[p-lo]
			for w := range dst {
				dst[w] |= src[w]
			}
			dst[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return counts
}

// weightMap keys sweepWeights' counts by ID, leaving out invisible (zero)
// entries.
func weightMap(lo ID, counts []int) map[ID]int {
	weights := make(map[ID]int, len(counts))
	for i, c := range counts {
		if c > 0 {
			weights[lo+ID(i)] = c
		}
	}
	return weights
}

// newBitsets allocates n bitsets of n bits each, backed by one flat slice
// for locality.
func newBitsets(n int) [][]uint64 {
	words := (n + 63) / 64
	flat := make([]uint64, n*words)
	sets := make([][]uint64, n)
	for i := range sets {
		sets[i] = flat[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

// popcountSet counts the set bits of a bitset.
func popcountSet(set []uint64) int {
	c := 0
	for _, w := range set {
		c += bits.OnesCount64(w)
	}
	return c
}

// Depths returns, for every transaction, its shortest distance (in approval
// hops) to any tip, following child edges. Tips have depth 0.
func (d *DAG) Depths() map[ID]int {
	txs, tips := d.frontier(nil)
	return depthMap(txs, tips)
}

// depthMap is the exported form of an unbounded depth search: one map entry
// per transaction reachable from roots. The map exists only at this edge;
// nothing inside the package reads depths through one.
func depthMap(txs []*Transaction, roots []ID) map[ID]int {
	var s denseSearch
	nodes := s.run(txs, roots, unbounded)
	depths := make(map[ID]int, len(nodes))
	for _, id := range nodes {
		depths[id] = s.depth(id)
	}
	return depths
}

// unbounded is denseSearch.run's maxDepth for a search of the whole ancestry.
const unbounded = math.MaxInt

// denseSearch is the storage of one breadth-first search over transaction
// IDs, reusable across searches without clearing: IDs are dense (index =
// ID), so "reached, and at which depth" is an array cell stamped with the
// generation of the search that wrote it, and starting a search is bumping
// the generation. The array is sized by the snapshot, not by the ID span
// between the oldest and newest root — orphaned tips stay tips forever, so
// that span is the whole run — and only ever grows (8 bytes per transaction,
// doubling). Not synchronized; see DAG.tipDepthsLocked and View for who owns
// which instance.
type denseSearch struct {
	gen   uint32
	marks []depthMark // by ID; current iff marks[id].gen == gen
	nodes []ID        // the reached transactions in visit order (nondecreasing depth)
}

type depthMark struct {
	gen   uint32
	depth int32
}

// reset starts a new, empty search over a snapshot of n transactions.
func (s *denseSearch) reset(n int) {
	if n > len(s.marks) {
		s.marks = make([]depthMark, max(n, 2*len(s.marks)))
	}
	s.gen++
	if s.gen == 0 { // wrapped: stamps of 2^32 searches ago would read as current
		clear(s.marks)
		s.gen = 1
	}
	s.nodes = s.nodes[:0]
}

// visit records id as reached at the given depth unless the search reached
// it before.
func (s *denseSearch) visit(id ID, depth int) {
	if !s.has(id) {
		s.marks[id] = depthMark{gen: s.gen, depth: int32(depth)}
		s.nodes = append(s.nodes, id)
	}
}

// has reports whether the current search reached id.
func (s *denseSearch) has(id ID) bool { return s.marks[id].gen == s.gen }

// depth returns the depth at which the current search reached id.
func (s *denseSearch) depth(id ID) int { return int(s.marks[id].depth) }

// run is the one depth search of the package: shortest distances, in
// approval hops, from the given roots to every transaction within maxDepth
// hops of one of them, returned as the reached IDs in visit order (valid
// until s is reset). Breadth-first search visits nodes in nondecreasing
// depth order and every shortest path to an in-bound node stays in bound, so
// the bounded result agrees exactly with the unbounded one restricted to
// [0, maxDepth] while the cost tracks the band around the roots, not the
// DAG. Approval edges never leave a parent-closed set, so a View's search
// from its visible tips needs no visibility check.
func (s *denseSearch) run(txs []*Transaction, roots []ID, maxDepth int) []ID {
	return s.runOver(txs, nil, roots, maxDepth)
}

// runOver is run over txs followed by extras, whose IDs continue txs' (an
// Overlay's added transactions).
func (s *denseSearch) runOver(txs, extras []*Transaction, roots []ID, maxDepth int) []ID {
	s.reset(len(txs) + len(extras))
	if maxDepth < 0 {
		return s.nodes
	}
	for _, id := range roots {
		s.visit(id, 0)
	}
	for head := 0; head < len(s.nodes); head++ {
		cur := s.nodes[head]
		dep := s.depth(cur)
		if dep >= maxDepth {
			break // everything behind cur is at least as deep
		}
		var t *Transaction
		if int(cur) < len(txs) {
			t = txs[cur]
		} else {
			t = extras[int(cur)-len(txs)]
		}
		for _, p := range t.Parents {
			s.visit(p, dep+1)
		}
	}
	return s.nodes
}

// band returns, in ascending ID order, the transactions the current search
// reached at depth minDepth or more — a suffix of the visit order, copied
// into dst's storage (which may be nil) so the search's own order survives.
func (s *denseSearch) band(dst []ID, minDepth int) []ID {
	ids := append(dst[:0], s.nodes[s.bandStart(minDepth):]...)
	slices.Sort(ids)
	return ids
}

// bandStart returns the position in s.nodes of the first transaction at
// depth minDepth or more.
func (s *denseSearch) bandStart(minDepth int) int {
	return sort.Search(len(s.nodes), func(i int) bool { return s.depth(s.nodes[i]) >= minDepth })
}

// depthBand is the walk entry band of one tangle state: the transactions
// whose depth lies in [minDepth, maxDepth], ascending, for the snapshot of n
// transactions. Shared by all readers and never modified.
type depthBand struct {
	n, minDepth, maxDepth int
	ids                   []ID
}

// holds reports whether b is the band [minDepth, maxDepth] of a snapshot of n
// transactions; a nil band holds nothing.
func (b *depthBand) holds(n, minDepth, maxDepth int) bool {
	return b != nil && b.n == n && b.minDepth == minDepth && b.maxDepth == maxDepth
}

// SampleAtDepth returns a uniformly random transaction whose depth (shortest
// distance to a tip) lies in [minDepth, maxDepth]. If no transaction
// qualifies, it returns the genesis transaction. This implements the walk
// entry-point sampling of §5.3.5 ("sampled at a depth of 15-25 transactions
// from the tips, as proposed by Popov").
//
// The band is memoized per (snapshot size, minDepth, maxDepth), like the
// cumulative weights and for the same reason: the DAG is append-only and Add
// changes the transaction list and the tip set under one lock, so the size
// determines both. Every walk of one tangle state after the first takes no
// lock and allocates nothing; walkers that miss together wait for one fill.
func (d *DAG) SampleAtDepth(rng *xrand.RNG, minDepth, maxDepth int) *Transaction {
	txs := d.snapshot()
	b := d.bandMemo.Load()
	if !b.holds(len(txs), minDepth, maxDepth) {
		txs, b = d.fillBand(minDepth, maxDepth)
	}
	return txs[drawAtDepth(rng, b.ids)]
}

// fillBand computes, publishes and returns the entry band of the current
// tangle state together with the transaction list it indexes.
func (d *DAG) fillBand(minDepth, maxDepth int) ([]*Transaction, *depthBand) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.depthMu.Lock()
	defer d.depthMu.Unlock()
	if b := d.bandMemo.Load(); b.holds(len(d.txs), minDepth, maxDepth) {
		return d.txs, b // a concurrent walker filled it while this one waited
	}
	b := &depthBand{n: len(d.txs), minDepth: minDepth, maxDepth: maxDepth, ids: d.tipDepthsLocked(maxDepth).band(nil, minDepth)}
	d.bandMemo.Store(b)
	return d.txs, b
}

// tipDepthsLocked returns the depth search from every current tip, bounded
// by maxDepth — the frontier both the walk entry band and the compaction
// freeze guard are defined over — running it only if the tangle grew or the
// bound changed since the search d.tipSearch still holds. The caller holds
// d.mu; a caller on its read side holds d.depthMu too.
func (d *DAG) tipDepthsLocked(maxDepth int) *denseSearch {
	if d.tipSearchN != len(d.txs) || d.tipSearchMax != maxDepth {
		d.tipSearch.run(d.txs, d.tips, maxDepth)
		d.tipSearchN, d.tipSearchMax = len(d.txs), maxDepth
	}
	return &d.tipSearch
}

// drawAtDepth is the one candidate draw of §5.3.5 for DAG, View and Overlay:
// uniform over an entry band given in ascending ID order; genesis, without
// touching rng, when the band is empty.
func drawAtDepth(rng *xrand.RNG, band []ID) ID {
	if len(band) == 0 {
		return 0
	}
	return band[rng.Intn(len(band))]
}

// DOT renders the DAG in Graphviz format, coloring tips gray and poisoned
// transactions red. Intended for debugging and small visual checks.
func (d *DAG) DOT() string {
	txs, tips := d.frontier(nil)
	var b strings.Builder
	b.WriteString("digraph tangle {\n  rankdir=RL;\n")
	for _, t := range txs {
		attrs := fmt.Sprintf("label=\"%d\\nc%d r%d\"", t.ID, t.Issuer, t.Round)
		if tips.has(t.ID) {
			attrs += ", style=filled, fillcolor=gray"
		}
		if t.Meta.Poisoned {
			attrs += ", color=red"
		}
		fmt.Fprintf(&b, "  t%d [%s];\n", t.ID, attrs)
	}
	for _, t := range txs {
		for _, p := range t.Parents {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", t.ID, p)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes the DAG for logging.
type Stats struct {
	Transactions int
	Tips         int
	MaxDepth     int
}

// Stats returns summary statistics.
func (d *DAG) Stats() Stats {
	txs, tips := d.frontier(nil)
	var s denseSearch
	nodes := s.run(txs, tips, unbounded)
	// The visit order is nondecreasing in depth: the last node is a deepest.
	return Stats{Transactions: len(txs), Tips: len(tips), MaxDepth: s.depth(nodes[len(nodes)-1])}
}

// idSet is a set of transaction IDs kept as an ascending slice — the tip set
// of a DAG or a View. A new transaction's ID is the largest, so add is an
// append; remove is a binary search and a copy of the (few) younger tips;
// readers copy the slice instead of collecting and sorting a map. Not
// synchronized; the owner's lock (DAG) or goroutine (View) guards it.
type idSet []ID

// find returns the position of id, or of the first larger ID.
func (s idSet) find(id ID) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= id })
}

func (s idSet) has(id ID) bool {
	i := s.find(id)
	return i < len(s) && s[i] == id
}

// ids returns a copy of the set in ascending order.
func (s idSet) ids() idSet { return append(idSet(nil), s...) }

func (s *idSet) add(id ID) {
	i := len(*s)
	if i > 0 && (*s)[i-1] >= id { // out of order: only a View's Reveal
		if i = s.find(id); (*s)[i] == id {
			return
		}
	}
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = id
}

func (s *idSet) remove(id ID) {
	if i := s.find(id); i < len(*s) && (*s)[i] == id {
		*s = append((*s)[:i], (*s)[i+1:]...)
	}
}
