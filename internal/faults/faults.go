// Package faults is the deterministic fault-injection subsystem: it turns a
// declarative fault schedule (Config) into a Model — a pure function of
// (config, seed, client set, horizon) that both engines consult for
// per-(publisher, observer) message visibility, scheduled network partitions
// that split and heal the federation, per-client straggler slowdowns, and
// client crash/recover churn windows.
//
// Everything is driven by internal/xrand seed splits keyed on stable
// identifiers (client IDs, publish sequence numbers), never by stream
// position: the same configuration and seed produce bit-identical fault
// schedules for any worker count, and a run resumed from a checkpoint
// re-derives the exact schedule the uninterrupted run had. The package is one
// of speclint's deterministic packages — no wall clock, no ambient
// randomness.
//
// The zero-cost degenerate case matters as much as the faults: Scalar(d)
// describes the engines' historical uniform broadcast delay, and a Model
// whose Uniform() reports true routes the async engine through its original
// single-visibility code path with unchanged numerics (pinned by the
// equivalence tests in internal/core).
package faults

import (
	"fmt"
	"math"
	"sort"

	"github.com/specdag/specdag/internal/xrand"
)

// Partition is one scheduled network split: during [From, To) the federation
// is divided into Groups disjoint groups (membership drawn deterministically
// per window from the seed) and messages do not cross group boundaries. At
// To the partition heals and deferred messages are delivered. Times are in
// the host engine's units — simulated seconds for the async engine, rounds
// for the synchronous one.
type Partition struct {
	From, To float64
	Groups   int
}

// Config declares a fault schedule. It is pure data: comparable via Equal,
// and written field by field into the SDA3/SDC3 checkpoint fault sections
// (internal/core's codec names every field; a new one needs a line there) so
// a resume under a different schedule is rejected instead of silently
// diverging.
//
// The network fields (Delay, Jitter, DropProb, Retransmit, DupProb) shape
// per-(publisher, observer) delivery and apply to the async engine; the
// synchronous engine's round grid has its own delivery model (RevealDelay)
// and consults only Partitions and churn. Stragglers apply to the async
// engine's cycle times.
type Config struct {
	// Delay is the base one-way broadcast delay applied to every
	// (publisher, observer) link, including the publisher's own delivery —
	// exactly the semantics of the engines' historical scalar NetworkDelay.
	Delay float64
	// Jitter adds a per-(transaction, observer) uniform extra delay in
	// [0, Jitter): the heterogeneous-latency half of a latency matrix.
	Jitter float64
	// DropProb is the probability that one delivery attempt of a message on
	// one link is lost. Lost deliveries are recovered by periodic re-gossip:
	// each loss defers that observer's delivery by Retransmit. Must be < 1.
	DropProb float64
	// Retransmit is the re-gossip period that recovers dropped deliveries.
	// Required positive when DropProb > 0.
	Retransmit float64
	// DupProb is the probability that a link delivers a message twice. A
	// duplicate is idempotent for the DAG (the reveal is a no-op) but counts
	// toward the run's communication statistics.
	DupProb float64
	// Partitions are the scheduled split-and-heal windows, non-overlapping
	// and sorted by From.
	Partitions []Partition
	// StragglerFrac selects round(StragglerFrac · clients) clients whose
	// cycle time is multiplied by StragglerFactor (async engine).
	StragglerFrac   float64
	StragglerFactor float64
	// ChurnFrac selects round(ChurnFrac · clients) clients that each crash
	// once: during a window drawn within the run horizon (length up to
	// MaxDowntime) the client does not activate; it recovers at the window's
	// end. Required: MaxDowntime > 0 when ChurnFrac > 0.
	ChurnFrac   float64
	MaxDowntime float64
}

// Scalar is the compatibility schedule: the engines' historical uniform
// broadcast delay and nothing else. A model built from it reports
// Uniform() == (delay, true).
func Scalar(delay float64) Config { return Config{Delay: delay} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"Delay", c.Delay}, {"Jitter", c.Jitter}, {"Retransmit", c.Retransmit},
		{"DupProb", c.DupProb}, {"MaxDowntime", c.MaxDowntime},
	} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("faults: %s must be finite and >= 0, got %v", v.name, v.val)
		}
	}
	if c.DropProb < 0 || c.DropProb >= 1 || math.IsNaN(c.DropProb) {
		return fmt.Errorf("faults: DropProb must be in [0, 1), got %v", c.DropProb)
	}
	if c.DropProb > 0 && c.Retransmit <= 0 {
		return fmt.Errorf("faults: DropProb %v needs a positive Retransmit period to recover lost deliveries", c.DropProb)
	}
	if c.DupProb >= 1 {
		return fmt.Errorf("faults: DupProb must be in [0, 1), got %v", c.DupProb)
	}
	if c.StragglerFrac < 0 || c.StragglerFrac > 1 || math.IsNaN(c.StragglerFrac) {
		return fmt.Errorf("faults: StragglerFrac must be in [0, 1], got %v", c.StragglerFrac)
	}
	if c.StragglerFrac > 0 && c.StragglerFactor < 1 {
		return fmt.Errorf("faults: StragglerFactor must be >= 1 when StragglerFrac > 0, got %v", c.StragglerFactor)
	}
	if c.ChurnFrac < 0 || c.ChurnFrac > 1 || math.IsNaN(c.ChurnFrac) {
		return fmt.Errorf("faults: ChurnFrac must be in [0, 1], got %v", c.ChurnFrac)
	}
	if c.ChurnFrac > 0 && c.MaxDowntime <= 0 {
		return fmt.Errorf("faults: ChurnFrac %v needs a positive MaxDowntime", c.ChurnFrac)
	}
	last := math.Inf(-1)
	for i, p := range c.Partitions {
		if math.IsNaN(p.From) || math.IsNaN(p.To) || math.IsInf(p.From, 0) || math.IsInf(p.To, 0) {
			return fmt.Errorf("faults: partition %d has non-finite window [%v, %v)", i, p.From, p.To)
		}
		if p.From < 0 || p.To < p.From {
			return fmt.Errorf("faults: partition %d has invalid window [%v, %v)", i, p.From, p.To)
		}
		if p.Groups < 2 {
			return fmt.Errorf("faults: partition %d needs Groups >= 2, got %d", i, p.Groups)
		}
		if p.From < last {
			return fmt.Errorf("faults: partition %d window [%v, %v) overlaps or precedes the previous window (schedule must be sorted and non-overlapping)", i, p.From, p.To)
		}
		last = p.To
	}
	return nil
}

// Enabled reports whether the schedule contains any fault at all (a nil or
// zero Config means the engines skip fault bookkeeping entirely).
func (c Config) Enabled() bool {
	return c.Delay != 0 || !c.uniform()
}

// uniform reports whether the schedule is exactly the historical uniform
// broadcast delay: no per-link variation, no partitions, no stragglers, no
// churn, no drops or duplicates.
func (c Config) uniform() bool {
	return c.Jitter == 0 && c.DropProb == 0 && c.DupProb == 0 &&
		len(c.Partitions) == 0 && c.StragglerFrac == 0 && c.ChurnFrac == 0
}

// Equal reports whether two schedules are identical field-for-field. It is
// the checkpoint resume guard: a snapshot taken under one schedule must not
// resume under another.
func (c Config) Equal(o Config) bool {
	if c.Delay != o.Delay || c.Jitter != o.Jitter || c.DropProb != o.DropProb ||
		c.Retransmit != o.Retransmit || c.DupProb != o.DupProb ||
		c.StragglerFrac != o.StragglerFrac || c.StragglerFactor != o.StragglerFactor ||
		c.ChurnFrac != o.ChurnFrac || c.MaxDowntime != o.MaxDowntime ||
		len(c.Partitions) != len(o.Partitions) {
		return false
	}
	for i, p := range c.Partitions {
		if p != o.Partitions[i] {
			return false
		}
	}
	return true
}

// Window is a client's crash window (inspection and test hooks).
type Window struct {
	From, To float64
}

// Model is one run's instantiated fault schedule. It is immutable after New
// and safe for concurrent readers: every query is a pure lookup or a pure
// seed-split draw, so distinct worker goroutines can consult it freely.
type Model struct {
	cfg     Config
	rng     *xrand.RNG // split "faults" off the run's root; never advanced
	horizon float64

	// Per-client derived schedule, keyed by client ID.
	cycleFactor map[int]float64
	crash       map[int]Window
	// groups[w][id] is the client's group in partition window w.
	groups []map[int]int
}

// New instantiates the schedule for one run: root is the run's root RNG
// (New splits from it without advancing it), clientIDs the federation's
// client IDs, and horizon the run's time extent in engine units (simulated
// seconds for async, rounds for sync). The result is a pure function of
// (cfg, root seed, clientIDs, horizon) — reconstructing it after a
// checkpoint resume yields the identical schedule.
func New(cfg Config, root *xrand.RNG, clientIDs []int, horizon float64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := append([]int(nil), clientIDs...)
	sort.Ints(ids)
	m := &Model{
		cfg:         cfg,
		rng:         root.Split("faults"),
		horizon:     horizon,
		cycleFactor: make(map[int]float64, len(ids)),
		crash:       make(map[int]Window),
	}

	for _, id := range ids {
		m.cycleFactor[id] = 1
	}
	if cfg.StragglerFrac > 0 {
		n := int(math.Round(cfg.StragglerFrac * float64(len(ids))))
		for _, i := range m.rng.Split("stragglers").SampleWithoutReplacement(len(ids), n) {
			m.cycleFactor[ids[i]] = cfg.StragglerFactor
		}
	}
	if cfg.ChurnFrac > 0 {
		n := int(math.Round(cfg.ChurnFrac * float64(len(ids))))
		for _, i := range m.rng.Split("churn").SampleWithoutReplacement(len(ids), n) {
			id := ids[i]
			wrng := m.rng.SplitIndex("churn-window", id)
			from := float64(wrng.Float64() * horizon)
			to := from + float64((0.25+float64(0.75*wrng.Float64()))*cfg.MaxDowntime)
			m.crash[id] = Window{From: from, To: to}
		}
	}
	m.groups = make([]map[int]int, len(cfg.Partitions))
	for w, p := range cfg.Partitions {
		g := make(map[int]int, len(ids))
		for _, id := range ids {
			g[id] = m.rng.SplitIndex("partition-group", w*1_000_003+id).Intn(p.Groups)
		}
		m.groups[w] = g
	}
	return m, nil
}

// Config returns the schedule the model was built from.
func (m *Model) Config() Config { return m.cfg }

// Uniform reports whether the model degenerates to the historical uniform
// broadcast delay, and that delay. Engines use it to keep the scalar
// compatibility path — and its exact numerics — when no real fault is
// scheduled.
func (m *Model) Uniform() (float64, bool) {
	return m.cfg.Delay, m.cfg.uniform()
}

// CycleFactor returns the client's cycle-time multiplier: 1 for ordinary
// clients, Config.StragglerFactor for selected stragglers. Unknown IDs
// (attackers, late joiners) are never stragglers.
func (m *Model) CycleFactor(id int) float64 {
	if f, ok := m.cycleFactor[id]; ok {
		return f
	}
	return 1
}

// Crashed reports whether the client is inside its crash window at time t.
func (m *Model) Crashed(id int, t float64) bool {
	w, ok := m.crash[id]
	return ok && t >= w.From && t < w.To
}

// CrashWindow returns the client's crash window, if it has one.
func (m *Model) CrashWindow(id int) (Window, bool) {
	w, ok := m.crash[id]
	return w, ok
}

// Recovery returns the time the client next recovers at or after t — the
// async engine reschedules a crashed client's activation there. When the
// client is not crashed at t, Recovery returns t.
func (m *Model) Recovery(id int, t float64) float64 {
	if m.Crashed(id, t) {
		return m.crash[id].To
	}
	return t
}

// groupOf returns the client's group in partition window w. IDs outside the
// federation (attackers) draw a group the same way, so the schedule extends
// to them deterministically.
func (m *Model) groupOf(w, id int) int {
	if g, ok := m.groups[w][id]; ok {
		return g
	}
	return m.rng.SplitIndex("partition-group", w*1_000_003+id).Intn(m.cfg.Partitions[w].Groups)
}

// Partitioned reports whether clients a and b are in different partition
// groups at time t.
func (m *Model) Partitioned(a, b int, t float64) bool {
	if a == b {
		return false
	}
	for w, p := range m.cfg.Partitions {
		if t >= p.From && t < p.To && m.groupOf(w, a) != m.groupOf(w, b) {
			return true
		}
	}
	return false
}

// PartitionDeferred reports whether a message published at pubTime by
// publisher is still withheld from observer at time now because the window
// containing pubTime separates them and has not healed yet. This is the
// synchronous engine's visibility rule: its round grid delivers everything
// published before the current round except what a live partition holds back.
func (m *Model) PartitionDeferred(pubTime float64, publisher, observer int, now float64) bool {
	if publisher == observer {
		return false
	}
	for w, p := range m.cfg.Partitions {
		if pubTime >= p.From && pubTime < p.To && now < p.To && m.groupOf(w, publisher) != m.groupOf(w, observer) {
			return true
		}
	}
	return false
}

// Delivery is one link's delivery outcome for one message.
type Delivery struct {
	// VisibleAt is the time the message becomes visible to the observer.
	VisibleAt float64
	// Dropped counts initial-broadcast losses recovered by re-gossip.
	Dropped int
	// Duplicated reports a duplicate delivery (stats only; the DAG reveal is
	// idempotent).
	Duplicated bool
}

// Deliver computes the delivery of publish #pubSeq, published by publisher
// at pubTime, to observer. It is a pure function of (model, pubSeq,
// publisher, observer, pubTime) — the same arguments always produce the same
// outcome, which is what makes fault schedules worker-count invariant and
// checkpoint-resumable. rng is a register the caller owns: Deliver re-seeds
// it with the link's stream and draws from it, so callers on several workers
// at once each pass their own.
//
// The delivery time is pubTime + Delay, plus a per-link jitter draw, plus
// one Retransmit period per lost gossip attempt; if the resulting arrival
// falls inside a partition window separating the two clients, delivery
// defers to the window's heal time. The publisher's own delivery uses the
// same base delay (matching the engines' historical semantics) but never
// drops, duplicates, or defers.
func (m *Model) Deliver(pubSeq, publisher, observer int, pubTime float64, rng *xrand.RNG) Delivery {
	d := Delivery{VisibleAt: pubTime + m.cfg.Delay}
	if observer == publisher {
		return d
	}
	if m.cfg.Jitter > 0 || m.cfg.DropProb > 0 || m.cfg.DupProb > 0 {
		// SplitIndex("deliver", pubSeq).SplitIndex("observer", observer),
		// without a register for the first hop or a new one for the second.
		rng.Reseed(xrand.SplitIndexSeed(xrand.SplitIndexSeed(m.rng.Seed(), "deliver", pubSeq), "observer", observer))
		if m.cfg.Jitter > 0 {
			d.VisibleAt += float64(rng.Float64() * m.cfg.Jitter)
		}
		for m.cfg.DropProb > 0 && rng.Float64() < m.cfg.DropProb {
			d.VisibleAt += m.cfg.Retransmit
			d.Dropped++
			if d.Dropped >= 64 {
				break // DropProb < 1 makes this unreachable in practice; hard cap regardless
			}
		}
		if m.cfg.DupProb > 0 && rng.Float64() < m.cfg.DupProb {
			d.Duplicated = true
		}
	}
	// A message whose arrival falls inside a window that separates the two
	// clients waits for the heal. Windows are sorted and non-overlapping, so
	// one ascending pass settles the final arrival.
	for w, p := range m.cfg.Partitions {
		if d.VisibleAt >= p.From && d.VisibleAt < p.To && m.groupOf(w, publisher) != m.groupOf(w, observer) {
			d.VisibleAt = p.To
		}
	}
	return d
}
