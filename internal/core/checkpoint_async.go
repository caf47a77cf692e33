package core

// Checkpoint/resume for the event-driven simulation — the async variant of
// the SDC3 checkpoint family (magic "SDA3"). The synchronous codec
// (checkpoint.go) snapshots state between rounds; this one snapshots state
// between events, which is where the asynchronous engine's Step boundary
// lies, so engine.Run's WithCheckpoints option works unchanged.
//
// What must be saved is exactly what one event cannot reconstruct:
//
//   - the event queue: every scheduled-but-unprocessed client activation
//     (time, scheduling sequence number, client index). The heap's pop order
//     is a strict total order (time, then sequence), so the restored queue
//     replays events in exactly the original order.
//   - pending transactions: models that passed the publish gate but whose
//     network propagation delay has not elapsed — they exist nowhere else.
//   - per-client statistics (cycles, publishes, final accuracy), which feed
//     the partial Result history.
//   - the tangle itself, streamed as an SDG1 snapshot ahead of the state
//     section, like the sync codec; the pending transactions' parameter
//     vectors are pinned with it and written as raw spans.
//   - the processed-event and scheduling counters and the done flag.
//
// What is deliberately NOT saved, because it is a pure function of the
// configuration (and is verified or regenerated on resume):
//
//   - RNG stream positions: all per-event randomness comes from
//     SplitIndex("async-event", seq) — pure seed splits, re-seeded into the
//     activation's scratch register, so the "stream position" of a client is
//     just the next event's sequence number, which the queue already
//     carries. The seed is stored and verified.
//   - per-client cycle times and the desynchronized start schedule: both are
//     drawn from SplitIndex("async-client", id) by NewAsyncSimulation, so
//     the resumed constructor regenerates them bit-identically.
//   - evaluation caches: pure per-transaction accuracies; a cold cache
//     recomputes the same values.
//
// Unlike the synchronous codec, the simulated-time horizon cannot be
// extended on resume: each processed event already decided whether to
// reschedule its client by comparing against Duration, so a longer horizon
// would need reschedule decisions that were discarded. Duration (and the
// other timing parameters) are therefore stored and must match exactly.

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
)

// asyncClientCheckpoint is the per-client carried state of an async run.
type asyncClientCheckpoint struct {
	ID        int
	Cycles    int
	Published int
	FinalAcc  float64
}

// asyncEventCheckpoint is one scheduled-but-unprocessed client activation.
type asyncEventCheckpoint struct {
	At     float64
	Seq    int
	Client int // index into the federation's client list
}

// asyncPendingCheckpoint is a published transaction still propagating.
// PubSeq/PubTime key the fault model's per-link delivery draws (zero in
// fault-free runs).
type asyncPendingCheckpoint struct {
	VisibleAt float64
	Issuer    int
	Parents   []dag.ID
	Params    []float64
	Meta      dag.Meta
	PubSeq    int
	PubTime   float64
}

// asyncTxCheckpoint is the publish metadata of a transaction already in the
// tangle, needed to recompute per-observer delivery times after a resume.
type asyncTxCheckpoint struct {
	ID      dag.ID
	PubSeq  int
	PubTime float64
}

// asyncCheckpointState is the serialized event-driven simulation.
type asyncCheckpointState struct {
	snapshotCommon
	Duration     float64
	MinCycle     float64
	MaxCycle     float64
	NetworkDelay float64
	Events       int
	Seq          int
	Done         bool
	Queue        []asyncEventCheckpoint
	Pending      []asyncPendingCheckpoint
	Clients      []asyncClientCheckpoint

	// Walked only with a fault section. The instantiated model is rebuilt on
	// resume; the publish counter, per-transaction publish metadata and the
	// communication counters carry state.
	PubSeq     int
	TxInfo     []asyncTxCheckpoint
	Deliveries int
	Dropped    int
	Duplicated int
}

// codec walks the timing parameters and counters, the fault model's publish
// state (only with a fault section), then the queue, the clients and the
// pending transactions, each ending in its parameter vector.
func (st *asyncCheckpointState) codec(c *dag.Codec) {
	for _, v := range []*float64{&st.Duration, &st.MinCycle, &st.MaxCycle, &st.NetworkDelay} {
		c.Float(v)
	}
	dag.Num(c, &st.Events)
	dag.Num(c, &st.Seq)
	c.Bool(&st.Done)
	if st.FaultsVersion == 1 {
		for _, v := range []*int{&st.PubSeq, &st.Deliveries, &st.Dropped, &st.Duplicated} {
			dag.Num(c, v)
		}
		dag.List(c, &st.TxInfo, func(tx *asyncTxCheckpoint) {
			dag.Num(c, &tx.ID)
			dag.Num(c, &tx.PubSeq)
			c.Float(&tx.PubTime)
		})
	}
	dag.List(c, &st.Queue, func(ev *asyncEventCheckpoint) {
		c.Float(&ev.At)
		dag.Num(c, &ev.Seq)
		dag.Num(c, &ev.Client)
	})
	dag.List(c, &st.Clients, func(cc *asyncClientCheckpoint) {
		dag.Num(c, &cc.ID)
		dag.Num(c, &cc.Cycles)
		dag.Num(c, &cc.Published)
		c.Float(&cc.FinalAcc)
	})
	dag.List(c, &st.Pending, func(p *asyncPendingCheckpoint) {
		c.Float(&p.VisibleAt)
		dag.Num(c, &p.Issuer)
		dag.Ints(c, &p.Parents)
		c.Float(&p.Meta.TrainAcc)
		c.Float(&p.Meta.TestAcc)
		c.Bool(&p.Meta.Poisoned)
		dag.Num(c, &p.PubSeq)
		c.Float(&p.PubTime)
		c.Span(&p.Params)
	})
}

func (st *asyncCheckpointState) info() *CheckpointInfo {
	return &CheckpointInfo{
		Kind: "async", Seed: st.Seed, Clients: len(st.Clients),
		Events: st.Events, Duration: st.Duration, Pending: len(st.Pending), Done: st.Done,
	}
}

// validate checks every field a corrupted snapshot could use to break the
// event loop's invariants: heap ordering, client indexing, parent references.
func (st *asyncCheckpointState) validate(d *dag.DAG) error {
	if st.Events < 0 || st.Seq < 0 {
		return fmt.Errorf("core: async checkpoint has negative counters (events %d, seq %d)", st.Events, st.Seq)
	}
	if st.Seq < len(st.Clients) {
		// The constructor alone consumes one sequence number per client.
		return fmt.Errorf("core: async checkpoint scheduling counter %d is below its %d clients", st.Seq, len(st.Clients))
	}
	for i, ev := range st.Queue {
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return fmt.Errorf("core: async checkpoint queue entry %d has invalid time %v", i, ev.At)
		}
		if ev.Seq < 0 || ev.Seq >= st.Seq {
			return fmt.Errorf("core: async checkpoint queue entry %d has sequence %d outside [0, %d)", i, ev.Seq, st.Seq)
		}
		if ev.Client < 0 || ev.Client >= len(st.Clients) {
			return fmt.Errorf("core: async checkpoint queue entry %d activates client index %d of %d", i, ev.Client, len(st.Clients))
		}
	}
	if st.FaultsVersion == 1 && st.PubSeq < 0 {
		return fmt.Errorf("core: async checkpoint has negative publish counter %d", st.PubSeq)
	}
	for i, tx := range st.TxInfo {
		if int(tx.ID) <= 0 || int(tx.ID) >= d.Size() {
			return fmt.Errorf("core: async checkpoint publish metadata entry %d names unknown transaction %d", i, tx.ID)
		}
		if tx.PubSeq < 0 || tx.PubSeq >= st.PubSeq {
			return fmt.Errorf("core: async checkpoint publish metadata entry %d has sequence %d outside [0, %d)", i, tx.PubSeq, st.PubSeq)
		}
		if math.IsNaN(tx.PubTime) || math.IsInf(tx.PubTime, 0) || tx.PubTime < 0 {
			return fmt.Errorf("core: async checkpoint publish metadata entry %d has invalid publish time %v", i, tx.PubTime)
		}
	}
	paramDim := len(d.Genesis().Params)
	for i, p := range st.Pending {
		if math.IsNaN(p.VisibleAt) || math.IsInf(p.VisibleAt, 0) {
			return fmt.Errorf("core: async checkpoint pending tx %d has invalid visibility time %v", i, p.VisibleAt)
		}
		if len(p.Params) != paramDim {
			return fmt.Errorf("core: async checkpoint pending tx %d has %d params, DAG models have %d", i, len(p.Params), paramDim)
		}
		for _, parent := range p.Parents {
			if int(parent) < 0 || int(parent) >= d.Size() {
				return fmt.Errorf("core: async checkpoint pending tx %d approves unknown transaction %d", i, parent)
			}
		}
	}
	return nil
}

// WriteCheckpoint serializes the event-driven simulation's full state to w
// and returns the number of bytes written: Checkpoint, encoded on the spot.
func (a *AsyncSimulation) WriteCheckpoint(w io.Writer) (int64, error) {
	return a.Checkpoint().WriteTo(w)
}

// Checkpoint takes the event-driven simulation's full state between events,
// which is the asynchronous engine's Step boundary (so engine.Run's
// WithCheckpoints takes consistent snapshots), as a value (a *Checkpoint) and
// encodes nothing. The simulation can keep running afterwards: in-flight
// publications are pinned, not copied — their parents and parameters are
// never written again.
func (a *AsyncSimulation) Checkpoint() engine.Checkpoint {
	st := asyncCheckpointState{
		Duration:     a.cfg.Duration,
		MinCycle:     a.cfg.MinCycle,
		MaxCycle:     a.cfg.MaxCycle,
		NetworkDelay: a.cfg.NetworkDelay,
		Events:       a.events,
		Seq:          a.seq,
		Done:         a.done,
	}
	if a.cfg.Faults.Enabled() {
		st.PubSeq = a.pubSeq
		st.Deliveries = a.deliveries
		st.Dropped = a.droppedDeliveries
		st.Duplicated = a.duplicatedDeliveries
		// Map iteration order is arbitrary; identical states must serialize
		// to identical bytes, so collect then sort by transaction ID.
		txs := make([]asyncTxCheckpoint, 0, len(a.txInfo))
		for id, info := range a.txInfo {
			txs = append(txs, asyncTxCheckpoint{ID: id, PubSeq: info.pubSeq, PubTime: info.pubTime})
		}
		sort.Slice(txs, func(i, j int) bool { return txs[i].ID < txs[j].ID })
		st.TxInfo = txs
	}
	for _, ev := range a.queue {
		st.Queue = append(st.Queue, asyncEventCheckpoint{At: ev.at, Seq: ev.seq, Client: ev.client})
	}
	for _, p := range a.pending {
		st.Pending = append(st.Pending, asyncPendingCheckpoint{
			VisibleAt: p.visibleAt,
			Issuer:    p.issuer,
			Parents:   p.parents,
			Params:    p.params,
			Meta:      p.meta,
			PubSeq:    p.pubSeq,
			PubTime:   p.pubTime,
		})
	}
	for _, ac := range a.async {
		st.Clients = append(st.Clients, asyncClientCheckpoint{
			ID:        ac.stats.ID,
			Cycles:    ac.stats.Cycles,
			Published: ac.stats.Published,
			FinalAcc:  ac.stats.FinalAcc,
		})
	}
	return a.takeCheckpoint(asyncCheckpointMagic, &st)
}

// ResumeAsyncSimulation reconstructs an event-driven simulation from a
// checkpoint written by (*AsyncSimulation).WriteCheckpoint, using the same
// federation and configuration as the original run. The resumed simulation
// continues from the checkpointed event and produces per-event results, final
// statistics and a DAG bit-identical to a run that was never interrupted.
//
// Unlike ResumeSimulation, the configured horizon cannot be extended: every
// processed event already decided against Duration whether to reschedule its
// client, so Duration (and MinCycle/MaxCycle/NetworkDelay, which shape the
// regenerated schedule) must match the checkpoint exactly.
func ResumeAsyncSimulation(fed *dataset.Federation, cfg AsyncConfig, r io.Reader) (*AsyncSimulation, error) {
	var st asyncCheckpointState
	d, err := readSnapshot(bufio.NewReader(r), asyncCheckpointMagic, &st)
	if err != nil {
		return nil, err
	}
	// The timing parameters shape both the regenerated per-client schedule
	// and the reschedule decisions already taken; any difference diverges.
	if st.Duration != cfg.Duration || st.MinCycle != cfg.MinCycle || st.MaxCycle != cfg.MaxCycle || st.NetworkDelay != cfg.NetworkDelay {
		return nil, fmt.Errorf("core: async checkpoint was taken with Duration=%v MinCycle=%v MaxCycle=%v NetworkDelay=%v, config has Duration=%v MinCycle=%v MaxCycle=%v NetworkDelay=%v — resuming under different timing would diverge",
			st.Duration, st.MinCycle, st.MaxCycle, st.NetworkDelay,
			cfg.Duration, cfg.MinCycle, cfg.MaxCycle, cfg.NetworkDelay)
	}
	a, err := NewAsyncSimulation(fed, cfg)
	if err != nil {
		return nil, err
	}
	if err := a.restore(&st.snapshotCommon, d, len(st.Clients)); err != nil {
		return nil, err
	}
	a.events = st.Events
	a.seq = st.Seq
	a.done = st.Done
	if a.net != nil {
		// The model itself was rebuilt by the constructor (a pure function of
		// the schedule); restore the publish metadata and counters.
		a.pubSeq = st.PubSeq
		a.deliveries = st.Deliveries
		a.droppedDeliveries = st.Dropped
		a.duplicatedDeliveries = st.Duplicated
		for _, tx := range st.TxInfo {
			a.txInfo[tx.ID] = txDelivery{pubSeq: tx.PubSeq, pubTime: tx.PubTime}
		}
	}
	for i, cc := range st.Clients {
		stats := &a.async[i].stats
		if stats.ID != cc.ID {
			return nil, fmt.Errorf("core: async checkpoint client %d has ID %d, federation has %d", i, cc.ID, stats.ID)
		}
		stats.Cycles = cc.Cycles
		stats.Published = cc.Published
		stats.FinalAcc = cc.FinalAcc
	}
	// Replace the constructor's fresh start schedule with the checkpointed
	// queue. The stored slice is a valid heap, but re-establishing the
	// invariant costs O(n) and also covers hand-edited snapshots; the pop
	// order is unaffected either way because (time, seq) is a strict total
	// order over the entries.
	a.queue = a.queue[:0]
	for _, ev := range st.Queue {
		a.queue = append(a.queue, event{at: ev.At, seq: ev.Seq, client: ev.Client})
	}
	heap.Init(&a.queue)
	a.pending = a.pending[:0]
	for _, p := range st.Pending {
		a.pending = append(a.pending, pendingTxAsync{
			pendingTx:  pendingTx{issuer: p.Issuer, parents: p.Parents, params: p.Params, meta: p.Meta},
			txDelivery: txDelivery{pubSeq: p.PubSeq, pubTime: p.PubTime},
			visibleAt:  p.VisibleAt,
		})
	}
	return a, nil
}
