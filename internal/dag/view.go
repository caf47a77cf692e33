package dag

import (
	"fmt"

	"github.com/specdag/specdag/internal/xrand"
)

// View is a read-only, partial-visibility view of a DAG: the sub-DAG induced
// by a set of revealed transactions. It models non-ideal transaction
// dissemination — a client that has not yet received a transaction walks a
// tangle without it, so its tips and weights differ from the global ones.
//
// The paper's scalability discussion (§5.3.5) explicitly assumes ideal
// broadcast; View is the machinery for relaxing that assumption.
//
// Genesis is always visible. Reveal must be called in an order that keeps
// the visible set parent-closed (a transaction only after its parents),
// which holds automatically when revealing in insertion order.
//
// Concurrency: a View is NOT safe for concurrent use — its visibility map
// and tip set are unsynchronized — so each simulated client owns one and all
// of that client's reveals and walks happen on a single goroutine. Distinct
// clients' views may be used concurrently with each other: the only state a
// View shares is the underlying *DAG, whose reads are lock-free, and the
// round engine never adds transactions while views are being read.
type View struct {
	d *DAG
	// visible marks revealed transactions.
	visible map[ID]bool
	// tips holds the visible transactions without visible children.
	tips idSet
	// cursor is the next global insertion index not yet considered by
	// RevealThrough.
	cursor ID
	// search and band are SampleAtDepth's reusable depth search and entry
	// band. The visible set changes without the DAG growing, so a View
	// memoizes nothing.
	search denseSearch
	band   []ID
}

// NewView creates a view of d in which only genesis is visible.
func NewView(d *DAG) *View {
	return &View{d: d, visible: map[ID]bool{0: true}, tips: idSet{0}, cursor: 1}
}

// Reveal makes the transaction with the given id visible. It returns an
// error if the id is unknown or any parent is not yet visible (the visible
// set must stay parent-closed so walks cannot dangle).
func (v *View) Reveal(id ID) error {
	if v.visible[id] {
		return nil
	}
	tx, ok := v.d.Get(id)
	if !ok {
		return fmt.Errorf("dag: view reveal of unknown transaction %d", id)
	}
	for _, p := range tx.Parents {
		if !v.visible[p] {
			return fmt.Errorf("dag: view reveal of %d before its parent %d", id, p)
		}
	}
	// The visible set is parent-closed, so nothing visible approves id yet:
	// it enters as a tip and its parents stop being tips.
	v.visible[id] = true
	v.tips.add(id)
	for _, p := range tx.Parents {
		v.tips.remove(p)
	}
	return nil
}

// RevealWhere reveals, in insertion order, every not-yet-considered
// transaction for which keep returns true. Transactions skipped by keep are
// not reconsidered by later RevealWhere calls if their IDs are below an
// already-revealed transaction's — callers should use monotone predicates
// (e.g. "published in round <= r"), which is how dissemination delays work.
// Transactions whose parents are not visible are skipped.
func (v *View) RevealWhere(keep func(*Transaction) bool) {
	size := ID(v.d.Size())
	for id := v.cursor; id < size; id++ {
		tx := v.d.MustGet(id)
		if !keep(tx) {
			continue
		}
		if err := v.Reveal(id); err != nil {
			continue // parent invisible: arrives later
		}
		if id == v.cursor {
			v.cursor++
		}
	}
	// Advance the cursor past any prefix that is fully visible.
	for v.cursor < size && v.visible[v.cursor] {
		v.cursor++
	}
}

// NumVisible returns the number of visible transactions.
func (v *View) NumVisible() int { return len(v.visible) }

// IsVisible reports whether id has been revealed.
func (v *View) IsVisible(id ID) bool { return v.visible[id] }

// Genesis returns the genesis transaction (always visible).
func (v *View) Genesis() *Transaction { return v.d.Genesis() }

// MustGet returns a visible transaction and panics for invisible or unknown
// IDs — walks over a view can only reach visible transactions, so reaching
// an invisible one is a bug.
func (v *View) MustGet(id ID) *Transaction {
	if !v.visible[id] {
		panic(fmt.Sprintf("dag: view access to invisible transaction %d", id))
	}
	return v.d.MustGet(id)
}

// Children returns the visible children of id, in insertion order.
func (v *View) Children(id ID) []ID {
	all := v.d.Children(id)
	out := make([]ID, 0, len(all))
	for _, c := range all {
		if v.visible[c] {
			out = append(out, c)
		}
	}
	return out
}

// Tips returns the visible transactions without visible children, in
// ascending order.
func (v *View) Tips() []ID { return v.tips.ids() }

// Depths returns, per visible transaction, the shortest distance to a
// visible tip following visible child edges.
func (v *View) Depths() map[ID]int {
	return depthMap(v.d.snapshot(), v.tips)
}

// SampleAtDepth returns a uniformly random visible transaction at depth
// [minDepth, maxDepth] from the visible tips, or genesis if none qualifies.
func (v *View) SampleAtDepth(rng *xrand.RNG, minDepth, maxDepth int) *Transaction {
	txs := v.d.snapshot()
	v.search.run(txs, v.tips, maxDepth)
	v.band = v.search.band(v.band, minDepth)
	return txs[drawAtDepth(rng, v.band)]
}

// CumulativeWeights returns, per visible transaction, the number of visible
// transactions approving it directly or indirectly, plus one for itself.
func (v *View) CumulativeWeights() map[ID]int {
	txs := v.d.snapshot()
	return weightMap(0, sweepWeights(txs, 0, ID(len(txs)), v.visible))
}
