package dag

import "sync/atomic"

// childIndex is the DAG's approval index: for every transaction, the IDs of
// the transactions that approve it directly. Its readers are lock-free — the
// tip-selection hot path calls Children and NumChildren on every walk step
// from many walker goroutines at once, and behind an RWMutex every one of
// those calls serialized on the same cache line.
//
// Layout: IDs are dense sequential integers, so the index is one array of
// rows indexed by ID, not a map. The array grows by amortised doubling
// (O(1) per append; the whole-array copy happens log n times over a run),
// and each row's child list does the same.
//
// Concurrency contract (single writer, lock-free readers):
//
//   - All mutations (appendChild) happen under the owning DAG's write lock,
//     so there is exactly one writer at a time.
//   - Readers never take a lock. Every mutable cell is published through an
//     atomic.Pointer: the writer prepares the new state (possibly writing
//     into spare capacity beyond the published length, which no reader can
//     observe) and then atomically stores a new slice header. The atomic
//     store/load pair gives the happens-before edge that makes the freshly
//     written elements visible.
//   - Published slices are immutable: an element below a published length is
//     never rewritten. Readers may therefore retain and iterate a returned
//     snapshot without copying, indefinitely.
type childIndex struct {
	// rows[id] is the row of transaction id. Grown copy-on-write by the
	// single writer; every published element is non-nil and never replaced.
	rows atomic.Pointer[[]*childRow]
}

// childRow is the child list of one transaction.
type childRow struct {
	// snap is the immutable child-ID snapshot. Appends publish a new header
	// over the same backing array while spare capacity lasts.
	snap atomic.Pointer[[]ID]
}

// appendChild records child as a direct approver of parent. Caller must hold
// the DAG's write lock (single-writer contract).
func (x *childIndex) appendChild(parent, child ID) {
	x.ensure(int(parent)).append(child)
}

// children returns the immutable child snapshot of id (nil when id has no
// children yet). Lock-free; safe to call concurrently with appendChild.
func (x *childIndex) children(id ID) []ID {
	rows := x.rows.Load()
	if rows == nil || int(id) >= len(*rows) {
		return nil
	}
	snap := (*rows)[id].snap.Load()
	if snap == nil {
		return nil
	}
	return *snap
}

// numChildren returns len(children(id)) without materializing anything.
func (x *childIndex) numChildren(id ID) int {
	return len(x.children(id))
}

// ensure returns the row for slot, growing the array as needed. Writer-only.
func (x *childIndex) ensure(slot int) *childRow {
	var rs []*childRow
	if cur := x.rows.Load(); cur != nil {
		rs = *cur
	}
	if slot < len(rs) {
		return rs[slot]
	}
	if slot < cap(rs) {
		// Extend in place: the new cells are invisible to readers holding
		// the old header, and the Store below publishes them.
		ext := rs[:slot+1]
		for i := len(rs); i <= slot; i++ {
			ext[i] = &childRow{}
		}
		x.rows.Store(&ext)
		return ext[slot]
	}
	newCap := 2 * cap(rs)
	if newCap <= slot {
		newCap = slot + 1
	}
	grown := make([]*childRow, slot+1, newCap)
	copy(grown, rs)
	for i := len(rs); i <= slot; i++ {
		grown[i] = &childRow{}
	}
	x.rows.Store(&grown)
	return grown[slot]
}

// append adds one child ID to the row. Writer-only.
func (r *childRow) append(c ID) {
	var ids []ID
	if cur := r.snap.Load(); cur != nil {
		ids = *cur
	}
	if len(ids) < cap(ids) {
		// The cell beyond the published length is unobservable until the
		// Store publishes the longer header.
		ids = ids[:len(ids)+1]
		ids[len(ids)-1] = c
	} else {
		newCap := 2 * cap(ids)
		if newCap < 2 {
			newCap = 2
		}
		grown := make([]ID, len(ids)+1, newCap)
		copy(grown, ids)
		grown[len(ids)] = c
		ids = grown
	}
	r.snap.Store(&ids)
}
