package dag

import (
	"fmt"

	"github.com/specdag/specdag/internal/xrand"
)

// Overlay is a read-only view of a DAG plus transactions not added to it
// yet: the tangle as it will read once they are, which the event engine's
// lookahead windows walk (see core's package doc). Every read equals a
// clone's after the same Adds: IDs continue the base's, Children lists base
// children before added approvers, and tips, depths and weights follow.
//
// An Overlay never writes the base and never copies its transaction list.
// Reset repoints it and keeps the depth search's storage (one mark per ID ever
// issued), so a caller keeps one Overlay per goroutine, not one per view. Not
// safe for concurrent use; the base must not grow while an Overlay reads it.
type Overlay struct {
	d      *DAG
	txs    []*Transaction // the base's transaction list at Reset
	extras []*Transaction // the added transactions: IDs len(txs), len(txs)+1, …
	tips   idSet
	// kids holds the child lists of the transactions the extras approve;
	// other transactions' children are the base's (none for an extra).
	kids    map[ID][]ID
	search  denseSearch
	band    *depthBand // SampleAtDepth's memo of this state
	weights map[ID]int // CumulativeWeights' memo of this state
}

// Reset points o at d with nothing added.
func (o *Overlay) Reset(d *DAG) {
	o.d = d
	o.txs, o.tips = d.frontier()
	clear(o.extras)
	o.extras = o.extras[:0]
	o.kids = make(map[ID][]ID)
	o.band, o.weights = nil, nil
}

// Add adds a transaction as the base's Add would, with the next ID, and
// returns it. Its parents may be base or added transactions.
func (o *Overlay) Add(issuer, round int, parents []ID, params []float64, meta Meta) (*Transaction, error) {
	if len(parents) < 1 || len(parents) > 2 {
		return nil, fmt.Errorf("dag: transaction must approve 1 or 2 parents, got %d", len(parents))
	}
	id := ID(len(o.txs) + len(o.extras))
	for _, p := range parents {
		if p < 0 || p >= id {
			return nil, fmt.Errorf("dag: unknown parent %d", p)
		}
	}
	t := &Transaction{ID: id, Issuer: issuer, Round: round, Parents: parents, Params: params, Meta: meta}
	o.extras = append(o.extras, t)
	for i, p := range parents {
		if i > 0 && p == parents[0] {
			continue // approving the same parent twice adds one child edge
		}
		ks, ok := o.kids[p]
		if !ok && int(p) < len(o.txs) {
			ks = append([]ID(nil), o.d.Children(p)...)
		}
		o.kids[p] = append(ks, t.ID)
		o.tips.remove(p)
	}
	o.tips.add(t.ID)
	o.band, o.weights = nil, nil
	return t, nil
}

// Genesis returns the genesis transaction.
func (o *Overlay) Genesis() *Transaction { return o.txs[0] }

// MustGet returns the transaction with the given ID, base or added, and
// panics if there is none.
func (o *Overlay) MustGet(id ID) *Transaction {
	if i := int(id) - len(o.txs); i >= 0 {
		if i >= len(o.extras) {
			panic(fmt.Sprintf("dag: no transaction %d", id))
		}
		return o.extras[i]
	}
	return o.txs[id]
}

// Children returns the IDs of the transactions approving id, in ID order.
// The slice must not be modified.
func (o *Overlay) Children(id ID) []ID {
	if ks, ok := o.kids[id]; ok {
		return ks
	}
	if int(id) >= len(o.txs) {
		return nil // an added transaction nothing approves
	}
	return o.d.Children(id)
}

// Tips returns the tip IDs in ascending order.
func (o *Overlay) Tips() []ID { return o.tips.ids() }

// SampleAtDepth is DAG.SampleAtDepth over the overlay: the band is searched
// from the overlay's tips once per state and bound.
func (o *Overlay) SampleAtDepth(rng *xrand.RNG, minDepth, maxDepth int) *Transaction {
	n := len(o.txs) + len(o.extras)
	if !o.band.holds(n, minDepth, maxDepth) {
		o.search.runOver(o.txs, o.extras, o.tips, maxDepth)
		o.band = &depthBand{n: n, minDepth: minDepth, maxDepth: maxDepth, ids: o.search.band(minDepth)}
	}
	return o.MustGet(drawAtDepth(rng, o.band.ids))
}

// CumulativeWeights is DAG.CumulativeWeights over the overlay: the live
// suffix's sweep, once per state. The sweep costs what the base's does, so
// the transaction list it runs over is joined here. The map is shared
// between callers and must not be modified.
func (o *Overlay) CumulativeWeights() map[ID]int {
	if o.weights == nil {
		txs := append(o.txs[:len(o.txs):len(o.txs)], o.extras...)
		floor := o.d.LiveFloor()
		o.weights = weightMap(floor, sweepWeights(txs, floor, ID(len(txs)), nil))
	}
	return o.weights
}
