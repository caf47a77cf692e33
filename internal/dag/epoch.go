package dag

// Epoch-based compaction: the bounded-memory substrate for long-haul runs.
//
// Transactions are bucketed into fixed-width epochs by their Round value
// (simulated seconds for the async engine, round numbers for the sync one).
// Epochs older than the live suffix are frozen: their confirmed cumulative
// weights are summarized into an EpochSummary, their records are optionally
// written to the run's spill log on disk (parameter vectors reloadable on
// demand via ParamsOf), and the in-memory copies are released. The DAG's
// *structure* — IDs, issuers, rounds, parent edges, metadata — is retained
// for every frozen transaction, so Depths, Ancestors, Children, metrics and
// the SDG1 codec keep working unchanged; only the dominant memory (full model
// weights per transaction) is reclaimed.
//
// Safety argument (why freezing never changes results). Compaction requires
// the uniform-broadcast-delay regime (no per-link fault model), where two
// facts hold:
//
//  1. Round values are monotone non-decreasing in insertion ID, so every
//     epoch is a contiguous ID prefix and any child of a live transaction
//     is itself live (children always have larger IDs than their parents).
//  2. New transactions only ever approve current tips (depth-0 nodes of the
//     flushed tangle), so a transaction's depth — its shortest distance to
//     any tip along child edges — is monotone NON-DECREASING as the DAG
//     grows: an approval turns a depth-0 tip into a depth-1 node and adds a
//     fresh depth-0 tip; no other node's shortest path shortens.
//
// CompactTo freezes an epoch only when every transaction currently within
// GuardDepth of the tips has a strictly larger Round than everything in the
// epoch (GuardDepth is the walk entry band's DepthMax). By (2) the frozen
// transactions stay deeper than GuardDepth forever, so no future walk entry
// (sampled at depth <= DepthMax) is frozen; by (1) every transaction a walk
// visits, scores or returns from there is live. Frozen parameter vectors
// are therefore never read by tip selection, consensus references or
// publish averaging — byte-identical histories with compaction on or off.
//
// One refinement keeps that guard from deadlocking. Tips that fall out of
// fashion are never approved, stay depth-0 forever, and would pin the
// minimum-Round-within-GuardDepth at their (ancient) Round for the rest of
// the run — the first orphaned tip would end all freezing. When the entry
// band has DepthMin >= 1 (GuardDepthMin), such tips can be proven *dead*:
// walks enter only at depth >= DepthMin and descend along child edges, so a
// tip whose entire ancestry sits strictly below the band (anchored within
// GuardDepthMin-1 hops of a dead tip) or permanently beyond GuardDepth is
// unreachable by every future walk. deadTipsLocked computes the maximal
// self-consistent set of such tips as a shrinking fixpoint, and the guard
// measures depths from the remaining live tips only.
//
// CompactTo must be called at a quiescent point (between events or rounds,
// the engines' sequential sections): it releases Params fields in place,
// which lock-free readers must not race with.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Compaction configures epoch-based freezing of old DAG history. The zero
// value disables compaction entirely (every code path is bit-for-bit the
// uncompacted engine).
type Compaction struct {
	// Width is the epoch width in Round units (simulated seconds for the
	// async engine, rounds for the sync engine). Must be >= 1 when enabled.
	Width int
	// Live is the number of trailing epochs kept fully resident: the epoch
	// containing the current Round plus Live-1 predecessors never freeze.
	// Must be >= 1 when enabled.
	Live int
	// GuardDepth is the structural freeze guard: an epoch freezes only once
	// every transaction within GuardDepth approval hops of the current tips
	// postdates it. The engines derive it from the tip selector's entry
	// band (DepthMax), which is what makes freezing invisible to walks.
	GuardDepth int
	// GuardDepthMin is the walk entry band's DepthMin, also derived by the
	// engines. When positive it enables dead-cone exclusion: a tip whose
	// entire ancestry sits strictly below the entry band (or permanently
	// above GuardDepth) can never be reached by any future walk, so it — and
	// the cone it anchors — stops pinning the guard. Without it, the first
	// orphaned tip would block all freezing forever (see deadTipsLocked).
	GuardDepthMin int
	// SpillDir, when non-empty, holds the run's spill log: each frozen
	// epoch's transaction records (SDG1's record layout, no header) in
	// epoch order, one file; ParamsOf reloads released parameter vectors
	// from it on demand. When empty, frozen parameters are dropped
	// irrecoverably (cheapest mode — fine when only the live suffix and the
	// summaries matter).
	SpillDir string
}

// Enabled reports whether compaction is configured.
func (c Compaction) Enabled() bool { return c.Width > 0 }

// Validate reports configuration errors.
func (c Compaction) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Width < 1 {
		return fmt.Errorf("dag: Compaction.Width must be >= 1, got %d", c.Width)
	}
	if c.Live < 1 {
		return fmt.Errorf("dag: Compaction.Live must be >= 1, got %d", c.Live)
	}
	if c.GuardDepth < 0 {
		return fmt.Errorf("dag: Compaction.GuardDepth must be >= 0, got %d", c.GuardDepth)
	}
	if c.GuardDepthMin < 0 {
		return fmt.Errorf("dag: Compaction.GuardDepthMin must be >= 0, got %d", c.GuardDepthMin)
	}
	if c.GuardDepthMin > c.GuardDepth {
		return fmt.Errorf("dag: Compaction.GuardDepthMin %d exceeds GuardDepth %d", c.GuardDepthMin, c.GuardDepth)
	}
	return nil
}

// EpochSummary records what compaction kept of one frozen epoch.
type EpochSummary struct {
	// Epoch is the epoch index (Round / Width; genesis counts into epoch 0).
	Epoch int
	// FirstID/LastID bound the epoch's contiguous ID range. An epoch with
	// no transactions has LastID == FirstID-1.
	FirstID ID
	LastID  ID
	// Txs is the transaction count, Edges the number of distinct approval
	// edges leaving the epoch's transactions (to this or earlier epochs).
	Txs   int
	Edges int
	// MinRound/MaxRound bound the Round values observed in the epoch.
	MinRound int
	MaxRound int
	// MeanTestAcc/MaxTestAcc summarize publish-time test accuracies
	// (genesis excluded); Poisoned counts poisoned transactions.
	MeanTestAcc float64
	MaxTestAcc  float64
	Poisoned    int
	// WeightSum/WeightMax summarize the confirmed cumulative weights at
	// freeze time: a frozen transaction's approvers all carry larger IDs,
	// so its weight restricted to frozen history is exactly its weight
	// within the epoch's own ID range — computed by a bitset sweep over
	// just that range.
	WeightSum int
	WeightMax int
	// SpillFile names the spill log the epoch's records went to (its
	// basename in Compaction.SpillDir) and SpillBytes their size; empty/0
	// without spill. The records start at the sum of the earlier epochs'
	// SpillBytes.
	SpillFile  string
	SpillBytes int64
}

// spillLog is the basename of a run's spill log in Compaction.SpillDir.
const spillLog = "spill.log"

// SetCompaction configures compaction. Call it at construction time, before
// the DAG is shared, and before any transaction beyond genesis is added.
func (d *DAG) SetCompaction(c Compaction) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Enabled() && c.SpillDir != "" {
		if err := os.MkdirAll(c.SpillDir, 0o755); err != nil {
			return fmt.Errorf("dag: creating spill dir: %w", err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.comp = c
	d.guardN = 0 // the verdict was the old configuration's
	return nil
}

// CompactionConfig returns the configured compaction settings.
func (d *DAG) CompactionConfig() Compaction {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.comp
}

// LiveFloor returns the first live (unfrozen) transaction ID: 0 when
// nothing is frozen. Lock-free.
func (d *DAG) LiveFloor() ID { return ID(d.floor.Load()) }

// FrozenEpochs returns a copy of the frozen epoch summaries in epoch order.
func (d *DAG) FrozenEpochs() []EpochSummary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]EpochSummary(nil), d.frozen...)
}

// epochOfRound maps a Round value to its epoch index. Genesis (Round -1)
// counts into epoch 0.
func (c Compaction) epochOfRound(round int) int {
	if round < 0 {
		return 0
	}
	return round / c.Width
}

// CompactTo freezes every epoch that has aged out of the live suffix as of
// the given Round, subject to the GuardDepth safety check, and returns the
// resulting live floor. It is idempotent and cheap when no epoch is newly
// eligible, so engines call it after every event or round. Must be called
// at a quiescent point (no concurrent readers of the released Params).
func (d *DAG) CompactTo(round int) (ID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.comp.Enabled() {
		return ID(d.floor.Load()), nil
	}
	target := d.comp.epochOfRound(round) - d.comp.Live
	if target <= d.lastFrozenEpoch {
		return ID(d.floor.Load()), nil
	}
	// guard is the smallest Round within GuardDepth of the current tips:
	// nothing at or above it may freeze. Depths only grow as the DAG does
	// (see the package comment), so the check holds for all future walks.
	guard := d.guardRoundLocked()
	for e := d.lastFrozenEpoch + 1; e <= target; e++ {
		ok, err := d.freezeEpochLocked(e, guard)
		if err != nil {
			return ID(d.floor.Load()), err
		}
		if !ok {
			break // guard-blocked; a later CompactTo retries
		}
	}
	return ID(d.floor.Load()), nil
}

// guardRoundLocked returns the minimum Round among transactions within
// GuardDepth approval hops of the walk-reachable tips. Tips whose cones are
// provably dead (see deadTipsLocked) are excluded: no future walk can read
// them, so they must not pin the guard. The verdict reads only the
// transaction list, the tip set, the approval index and the (fixed)
// configuration — it is pure in the tangle — so it is memoized on the
// transaction count: a guard-blocked run recomputes it once per added
// transaction, not once per CompactTo. Caller holds d.mu.
func (d *DAG) guardRoundLocked() int {
	if d.guardN != len(d.txs) {
		d.guardN, d.guardRound = len(d.txs), d.computeGuardLocked()
	}
	return d.guardRound
}

// computeGuardLocked evaluates the guard on the current tangle: the depth
// search from all tips is the walk entry draw's own (tipDepthsLocked), and
// the dead-tip analysis runs on the two further dense searches of
// d.guardAux. Caller holds d.mu.
func (d *DAG) computeGuardLocked() int {
	const blocked = -1 << 30 // below any Round: freezes nothing
	depths := d.tipDepthsLocked(d.comp.GuardDepth)
	reached := depths.nodes
	if d.comp.GuardDepthMin > 0 {
		dead, numDead, bandEmpty := d.deadTipsLocked(depths)
		if bandEmpty {
			// No transaction sits in the walk entry band yet, so walks fall
			// back to genesis entries and can read the whole DAG.
			return blocked
		}
		if numDead == len(d.tips) {
			return blocked
		}
		if numDead > 0 {
			reached = d.guardAux[0].run(d.txs, tipsWhere(d.tips, dead, false), d.comp.GuardDepth)
		}
	}
	min := math.MaxInt
	for _, id := range reached {
		if r := d.txs[id].Round; r < min {
			min = r
		}
	}
	return min
}

// tipsWhere returns the tips whose dead flag equals want.
func tipsWhere(tips []ID, dead []bool, want bool) []ID {
	var out []ID
	for i, t := range tips {
		if dead[i] == want {
			out = append(out, t)
		}
	}
	return out
}

// deadConeBudget caps the per-tip ancestor-closure walk in deadTipsLocked.
// Dead cones are young sub-DAGs that stalled before growing GuardDepthMin
// deep, so real closures are tiny; a tip whose closure exceeds the budget is
// conservatively treated as alive.
const deadConeBudget = 1 << 16

// deadTipsLocked identifies tips that no walk can ever reach again, so the
// guard may ignore them: dead[i] says so of d.tips[i], numDead counts them.
// depths is the GuardDepth-bounded search from all tips. It reports
// bandEmpty when no transaction currently sits in the walk entry band
// [GuardDepthMin, GuardDepth] — then entry sampling falls back to genesis
// and nothing at all is safe to freeze.
//
// Reachability argument. A walk enters at a transaction whose depth lies in
// the entry band and descends along child edges, so everything it visits,
// scores or selects is a descendant of a band transaction. A tip with no
// band ancestor is unreachable *now*; it stays unreachable forever if every
// ancestor y of the tip can never enter the band later:
//
//   - dist(y, some dead tip) < GuardDepthMin: that distance is fixed, and a
//     dead tip — never walk-selected — stays a tip forever, so depth(y)
//     stays pinned strictly below the band for all time; or
//   - depth(y) > GuardDepth already: depths are monotone non-decreasing
//     (package comment), so y can never drop back into the band.
//
// Unreachable tips are never approved, which closes the loop: the anchor
// distances above never change. The check is evaluated as a shrinking
// fixpoint — assuming every currently-unreachable tip dead, then discarding
// tips whose ancestor closure escapes both conditions until the remaining
// set is self-consistent. Caller holds d.mu.
func (d *DAG) deadTipsLocked(depths *denseSearch) (dead []bool, numDead int, bandEmpty bool) {
	band := depths.nodes[depths.bandStart(d.comp.GuardDepthMin):]
	if len(band) == 0 {
		return nil, 0, true
	}

	// Tips reachable from the entry band: forward BFS along child edges.
	reach := &d.guardAux[0]
	reach.reset(len(d.txs))
	for _, id := range band {
		reach.visit(id, 0)
	}
	for head := 0; head < len(reach.nodes); head++ {
		for _, c := range d.kids.children(reach.nodes[head]) {
			reach.visit(c, 0)
		}
	}
	dead = make([]bool, len(d.tips))
	for i, t := range d.tips {
		if !reach.has(t) {
			dead[i] = true
			numDead++
		}
	}

	// Shrink to a self-consistent set: every ancestor of a dead tip must be
	// anchored strictly below the band by some (still-)dead tip, or already
	// be permanently below GuardDepth reach. anchored holds the transactions
	// within GuardDepthMin-1 approval hops of a dead tip — the region whose
	// depth is pinned strictly below the walk entry band for as long as
	// those tips stay dead (reach has served; its storage is reused).
	anchored := &d.guardAux[0]
	for removed := true; removed && numDead > 0; {
		anchored.run(d.txs, tipsWhere(d.tips, dead, true), d.comp.GuardDepthMin-1)
		removed = false
		for i, t := range d.tips {
			if dead[i] && !d.deadConsistentLocked(t, anchored, depths) {
				dead[i] = false
				numDead--
				removed = true
			}
		}
	}
	return dead, numDead, false
}

// deadConsistentLocked reports whether every ancestor of tip t is either
// anchored below the entry band or permanently beyond GuardDepth (not
// reached by the bounded depth search). Closures larger than deadConeBudget
// bail out as "alive" — conservative, never unsound. Caller holds d.mu.
func (d *DAG) deadConsistentLocked(t ID, anchored, depths *denseSearch) bool {
	seen := &d.guardAux[1]
	seen.reset(len(d.txs))
	seen.visit(t, 0)
	for head := 0; head < len(seen.nodes); head++ {
		cur := seen.nodes[head]
		if !anchored.has(cur) && depths.has(cur) {
			return false
		}
		if len(seen.nodes) > deadConeBudget {
			return false
		}
		for _, p := range d.txs[cur].Parents {
			seen.visit(p, 0)
		}
	}
	return true
}

// freezeEpochLocked freezes epoch e if the guard permits, summarizing it,
// spilling parameters when configured, and releasing the in-memory copies.
// It reports false when the epoch is still guard-blocked. Caller holds d.mu.
func (d *DAG) freezeEpochLocked(e, guard int) (bool, error) {
	first := ID(d.floor.Load())
	last := first - 1
	for int(last+1) < len(d.txs) && d.comp.epochOfRound(d.txs[last+1].Round) <= e {
		last++
	}
	if last < first {
		// Empty epoch: nothing to freeze, but the bookkeeping advances so
		// later epochs can.
		d.frozen = append(d.frozen, EpochSummary{Epoch: e, FirstID: first, LastID: last})
		d.lastFrozenEpoch = e
		return true, nil
	}
	// Rounds are monotone in ID under the uniform-delay regime, so the last
	// transaction carries the epoch's maximum Round.
	if d.txs[last].Round >= guard {
		return false, nil
	}

	sum := EpochSummary{
		Epoch:    e,
		FirstID:  first,
		LastID:   last,
		Txs:      int(last - first + 1),
		MinRound: d.txs[first].Round,
		MaxRound: d.txs[last].Round,
	}
	accN := 0
	for i := first; i <= last; i++ {
		t := d.txs[i]
		seen := ID(-1)
		for _, p := range t.Parents {
			if p != seen {
				sum.Edges++
			}
			seen = p
		}
		if t.Meta.Poisoned {
			sum.Poisoned++
		}
		if !t.IsGenesis() {
			accN++
			sum.MeanTestAcc += t.Meta.TestAcc
			if t.Meta.TestAcc > sum.MaxTestAcc {
				sum.MaxTestAcc = t.Meta.TestAcc
			}
		}
	}
	if accN > 0 {
		sum.MeanTestAcc /= float64(accN)
	}
	// Confirmed weights: all of a frozen transaction's frozen approvers lie
	// in its own epoch's range, because approvers have larger IDs and the
	// frozen prefix ends at last.
	for _, w := range sweepWeights(d.txs, first, last+1, nil) {
		sum.WeightSum += w
		if w > sum.WeightMax {
			sum.WeightMax = w
		}
	}

	if d.comp.SpillDir != "" {
		n, err := d.spillLocked(e, first, last)
		if err != nil {
			return false, err
		}
		sum.SpillFile, sum.SpillBytes = spillLog, n
	}

	// Release the parameter vectors. Genesis keeps its copy: checkpoint
	// resume validates against it and it defines the parameter dimension.
	for i := first; i <= last; i++ {
		if i != 0 {
			d.txs[i].Params = nil
		}
	}
	d.frozen = append(d.frozen, sum)
	d.lastFrozenEpoch = e
	d.floor.Store(int64(last + 1))
	// The weights memo predates the freeze; live-suffix sweeps re-key on
	// the floor.
	d.cwCache.Store(nil)
	return true, nil
}

// spillLocked writes the records of [first, last] into the spill log where
// the frozen epochs' bytes end and returns how many it wrote. It writes by
// position, never appending or truncating, so an engine resumed into the same
// directory writes the same bytes to the same place. The encoder's buffer is
// kept between freezes. Caller holds d.mu.
func (d *DAG) spillLocked(e int, first, last ID) (int64, error) {
	f, err := os.OpenFile(filepath.Join(d.comp.SpillDir, spillLog), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return 0, fmt.Errorf("dag: spilling epoch %d: %w", e, err)
	}
	enc := &Codec{w: io.NewOffsetWriter(f, spillOffset(d.frozen, len(d.frozen))), b: d.spillBuf[:0], chunk: 8 << 10} // small: the DAG keeps b
	for _, t := range d.txs[first : last+1] {
		enc.record(t, &t.Params)
	}
	err = errors.Join(enc.Flush(), f.Close())
	d.spillBuf = enc.b[:0]
	if err != nil {
		return 0, fmt.Errorf("dag: spilling epoch %d: %w", e, err)
	}
	return enc.Written(), nil
}

// spillOffset is where the bytes of epochs[i] start in the spill log: the sum
// of the earlier epochs' SpillBytes.
func spillOffset(epochs []EpochSummary, i int) int64 {
	var off int64
	for _, s := range epochs[:i] {
		off += s.SpillBytes
	}
	return off
}

// ParamsOf returns the parameter vector of the given transaction: the live
// in-memory copy, or — for a frozen transaction whose epoch was spilled —
// the copy reloaded from the spill log, decoded from the epoch's offset up to
// the transaction's record. Every record decoded must carry the structure the
// tangle holds for its ID (issuer, round, parents, metadata), so a log that
// another run overwrote is an error, not that run's vector. It fails for
// frozen transactions compacted without a spill directory. Its readers are
// core's compaction-equivalence gate and bench's async-longhaul reload.
func (d *DAG) ParamsOf(id ID) ([]float64, error) {
	t, ok := d.Get(id)
	if !ok {
		return nil, fmt.Errorf("dag: no transaction %d", id)
	}
	if id == 0 || id >= d.LiveFloor() {
		return t.Params, nil
	}
	d.mu.RLock()
	dir, epochs := d.comp.SpillDir, d.frozen // a frozen summary is never rewritten
	d.mu.RUnlock()
	i := 0
	for i < len(epochs) && epochs[i].LastID < id {
		i++
	}
	if i == len(epochs) || epochs[i].SpillFile == "" {
		return nil, fmt.Errorf("dag: transaction %d was compacted without a spill directory; its params are gone", id)
	}
	e := epochs[i]
	f, err := os.Open(filepath.Join(dir, e.SpillFile))
	if err != nil {
		return nil, fmt.Errorf("dag: reloading epoch %d: %w", e.Epoch, err)
	}
	defer f.Close()
	dec := NewDecoder(bufio.NewReader(io.NewSectionReader(f, spillOffset(epochs, i), e.SpillBytes)))
	for next := e.FirstID; ; next++ {
		tx := &Transaction{ID: next}
		dec.record(tx, &tx.Params)
		if r := d.MustGet(next); dec.Err() == nil && (tx.Issuer != r.Issuer || tx.Round != r.Round || tx.Meta != r.Meta || !slices.Equal(tx.Parents, r.Parents)) {
			dec.Fail(fmt.Errorf("the spill log holds another record (issuer %d, round %d, parents %v)", tx.Issuer, tx.Round, tx.Parents))
		}
		if dec.Err() != nil {
			return nil, fmt.Errorf("dag: reloading epoch %d: tx %d: %w", e.Epoch, next, dec.Err())
		}
		if next == id {
			return tx.Params, nil
		}
	}
}

// RestoreCompaction reinstates compaction state on a DAG rebuilt from a
// checkpoint: the configuration plus the frozen epoch summaries recorded
// when the checkpoint was written. Summaries must be contiguous from epoch
// 0 and consistent with the DAG's size.
func (d *DAG) RestoreCompaction(c Compaction, epochs []EpochSummary) error {
	if err := c.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !c.Enabled() && len(epochs) > 0 {
		return fmt.Errorf("dag: %d frozen epochs without a compaction config", len(epochs))
	}
	floor := ID(0)
	for i, s := range epochs {
		if s.Epoch != i {
			return fmt.Errorf("dag: frozen epochs not contiguous: entry %d has epoch %d", i, s.Epoch)
		}
		if s.FirstID != floor || s.LastID < s.FirstID-1 {
			return fmt.Errorf("dag: frozen epoch %d covers [%d, %d], want to start at %d", s.Epoch, s.FirstID, s.LastID, floor)
		}
		if s.SpillFile != "" && s.SpillFile != spillLog {
			return fmt.Errorf("dag: frozen epoch %d spilled to %q: one file per epoch is an older spill generation than this build reads (one %q log per run) — resume it with a build that reads it", s.Epoch, s.SpillFile, spillLog)
		}
		floor = s.LastID + 1
	}
	if int(floor) > len(d.txs) {
		return fmt.Errorf("dag: frozen epochs cover %d transactions but the DAG has %d", floor, len(d.txs))
	}
	d.comp = c
	d.frozen = append([]EpochSummary(nil), epochs...)
	d.lastFrozenEpoch = len(epochs) - 1
	d.floor.Store(int64(floor))
	d.cwCache.Store(nil)
	d.guardN = 0
	return nil
}
