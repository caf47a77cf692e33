package core

// Checkpoint/resume for the round simulation: the full simulation state —
// tangle, per-client training state, poisoning flags, round counter and the
// recorded history — serialized to a versioned binary snapshot, extending
// the DAG codec (internal/dag, "SDG1") to whole simulations. A run resumed
// from a checkpoint is bit-identical to one that was never interrupted:
//
//   - All randomness derives from Config.Seed through pure splits keyed by
//     round and client (xrand.Split*), so the "RNG streams" of a checkpoint
//     are just the seed — no mutable generator state exists to save. The
//     seed is stored and verified so a snapshot cannot silently resume under
//     a different randomness universe.
//   - Client-side carried state (the last trained model, kept for the
//     personal head under partial-layer sharing and only then; poisoned
//     flags and the label flips they imply) is restored explicitly.
//   - Partial-visibility views and evaluator memo caches are reconstructed,
//     not stored: reveal predicates are monotone in the round counter, so a
//     fresh view reveals exactly the accumulated set, and memoization only
//     caches pure per-transaction accuracies (a cold cache re-computes the
//     same values; walk stats count accuracy lookups, not cache misses).
//
// Format: magic "SDC3", then the tangle as an SDG1 record stream, then the
// state section: the common sections (snapshot.go has the envelope and the
// encoding), the round counters and attack parameters, per client its ID,
// poisoned flag and last model, and the history, one RoundResult per round.
// "SDC2" files, whose state was one gob value, are still read.

import (
	"bufio"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/faults"
)

// clientCheckpoint is the per-client carried state.
type clientCheckpoint struct {
	ID         int
	Poisoned   bool
	LastParams []float64
}

// checkpointState is the serialized simulation. Its fields keep the names
// SDC2's gob value gave them, which is how that generation is still read.
type checkpointState struct {
	Seed    int64
	Poison  PoisonConfig // restoring label flips needs the attack parameters
	Round   int
	Rounds  int // configured horizon at checkpoint time (informational)
	Clients []clientCheckpoint
	Results []RoundResult

	// Versioned fault-state section. FaultsVersion is 0 for fault-free runs
	// and 1 when a fault schedule was active — the schedule itself is all that
	// needs saving, because the instantiated model is a pure function of
	// (schedule, seed, clients, horizon).
	FaultsVersion int
	Faults        faults.Config

	// Versioned epoch-compaction section (0 = compaction off). When 1,
	// Compaction holds the active config and Epochs the frozen epoch
	// summaries; the tangle section carries frozen transactions with released
	// (empty) parameter vectors, so checkpoint size stays proportional to the
	// live suffix.
	CompactionVersion int
	Compaction        dag.Compaction
	Epochs            []dag.EpochSummary
}

func (st *checkpointState) sections() sections {
	return sections{&st.Seed, &st.FaultsVersion, &st.Faults, &st.CompactionVersion, &st.Compaction, &st.Epochs}
}

func (st *checkpointState) codec(c *stateCodec) {
	num(c, &st.Round)
	num(c, &st.Rounds)
	p := &st.Poison
	c.float(&p.Fraction)
	for _, v := range []*int{&p.FlipA, &p.FlipB, &p.StartRound} {
		num(c, v)
	}
	c.bool(&p.Track)
	num(c, &p.RandomAttackers)
	list(c, &st.Clients, func(cc *clientCheckpoint) {
		num(c, &cc.ID)
		c.bool(&cc.Poisoned)
		c.span(&cc.LastParams)
	})
	list(c, &st.Results, func(r *RoundResult) {
		num(c, &r.Round)
		ints(c, &r.Active)
		for _, v := range []*[]float64{&r.TrainedAcc, &r.TrainedLoss, &r.RefAcc, &r.RefLoss} {
			c.span(v)
		}
		list(c, &r.Published, c.bool)
		ints(c, &r.RefTx)
		c.span(&r.FlippedFrac)
		list(c, &r.ActivePoisoned, c.bool)
		ints(c, &r.RefPoisonedApprovals)
		num(c, &r.Walk.Steps)
		num(c, &r.Walk.Evaluations)
		ints(c, &r.WalkDurations)
	})
}

func (st *checkpointState) info() *CheckpointInfo {
	return &CheckpointInfo{Kind: "sync", Seed: st.Seed, Round: st.Round, Rounds: st.Rounds, Clients: len(st.Clients)}
}

func (st *checkpointState) validate(d *dag.DAG) error {
	if st.Round < 0 {
		return fmt.Errorf("core: checkpoint has negative round %d", st.Round)
	}
	if len(st.Results) != st.Round {
		return fmt.Errorf("core: checkpoint records %d results for %d rounds", len(st.Results), st.Round)
	}
	for i, cc := range st.Clients {
		if n := len(cc.LastParams); n != 0 && n != len(d.Genesis().Params) {
			return fmt.Errorf("core: checkpoint client %d has a %d-parameter last model, DAG models have %d", i, n, len(d.Genesis().Params))
		}
	}
	return nil
}

// WriteCheckpoint serializes the simulation's full state to w and returns
// the number of bytes written. The simulation can keep running afterwards;
// the checkpoint captures the state between rounds — the history and the
// clients' last models are pinned, not copied: the run appends rows and
// replaces models, it never writes into one it holds. A sink with a
// KeepCheckpoint method is handed the Checkpoint itself, nothing written.
func (s *Simulation) WriteCheckpoint(w io.Writer) (int64, error) {
	st := checkpointState{
		Poison:  s.cfg.Poison,
		Round:   s.round,
		Rounds:  s.cfg.Rounds,
		Results: s.results,
	}
	for _, c := range s.clients {
		st.Clients = append(st.Clients, clientCheckpoint{
			ID:         c.id,
			Poisoned:   c.poisoned,
			LastParams: c.lastParams,
		})
	}
	return s.writeSnapshot(w, checkpointMagic, &st)
}

// ResumeSimulation reconstructs a simulation from a checkpoint written by
// WriteCheckpoint, using the same federation and configuration as the
// original run. The resumed simulation continues from the checkpointed
// round and produces a history and DAG bit-identical to a run that was
// never interrupted. cfg.Rounds may exceed the original horizon to extend
// the run.
func ResumeSimulation(fed *dataset.Federation, cfg Config, r io.Reader) (*Simulation, error) {
	var st checkpointState
	d, err := readSnapshot(bufio.NewReader(r), checkpointMagic, &st)
	if err != nil {
		return nil, err
	}
	if st.Poison != cfg.Poison {
		// The label flips applied before the checkpoint are a function of
		// the attack parameters; resuming under different ones would leave
		// client data inconsistent with the poisoned flags.
		return nil, fmt.Errorf("core: checkpoint was taken with Poison %+v, config has %+v — resuming under a different attack would diverge",
			st.Poison, cfg.Poison)
	}
	if cfg.Faults.Enabled() && st.Rounds != cfg.Rounds {
		// The instantiated fault model draws churn windows within [0, Rounds)
		// and partitions are phrased against it; a different horizon is a
		// different schedule.
		return nil, fmt.Errorf("core: checkpoint was taken with a %d-round horizon, config has %d — the fault schedule is drawn against the horizon, so it cannot be extended on resume",
			st.Rounds, cfg.Rounds)
	}
	s, err := NewSimulation(fed, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restore(st.sections(), d, len(st.Clients)); err != nil {
		return nil, err
	}
	s.round = st.Round
	s.results = st.Results
	for i, cc := range st.Clients {
		c := s.clients[i]
		if c.id != cc.ID {
			return nil, fmt.Errorf("core: checkpoint client %d has ID %d, federation has %d", i, cc.ID, c.id)
		}
		if s.personalHead() {
			c.lastParams = cc.LastParams
		}
		if cc.Poisoned {
			// Re-apply the label flips the attack performed before the
			// checkpoint; origTestY keeps the pre-attack labels for the
			// flipped-prediction metric, exactly as in the original run.
			c.poisoned = true
			flipLabels(c.trainY, cfg.Poison.FlipA, cfg.Poison.FlipB)
			flipLabels(c.testY, cfg.Poison.FlipA, cfg.Poison.FlipB)
			c.eval = s.newEvalFor(c)
		}
	}
	return s, nil
}

// CheckpointInfo summarizes a checkpoint without reconstructing the
// simulation (cmd/dagstat uses it to inspect snapshots of either kind).
// Kind is "sync" (SDC3, SDC2) or "async" (SDA3, SDA2); Round/Rounds describe
// the sync resume point, Events/Duration/Pending/Done the async one.
type CheckpointInfo struct {
	Kind    string
	Seed    int64
	Round   int
	Rounds  int
	Clients int

	// Async checkpoints only:
	Events   int     // processed client activations
	Duration float64 // configured simulated-time horizon in seconds
	Pending  int     // published transactions still propagating
	Done     bool    // the run had reached its horizon

	// Epoch compaction (both kinds; zero when compaction was off):
	FrozenEpochs int   // epochs frozen out of the live suffix
	FrozenTxs    int   // transactions whose params were released
	SpillBytes   int64 // total size of the epoch spill files
}

// InspectCheckpoint reads a checkpoint of either kind — synchronous (SDC3,
// or SDC2 from an older build) or asynchronous (SDA3, SDA2) — and returns its
// summary along with the embedded tangle.
func InspectCheckpoint(r io.Reader) (*CheckpointInfo, *dag.DAG, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	var st snapshotState = &checkpointState{}
	want := checkpointMagic
	if m := [4]byte(magic); m == asyncCheckpointMagic || m == prevMagic(asyncCheckpointMagic) {
		st, want = &asyncCheckpointState{}, asyncCheckpointMagic
	}
	d, err := readSnapshot(br, want, st)
	if err != nil {
		return nil, nil, err
	}
	info := st.info()
	epochs := *st.sections().epochs
	info.FrozenEpochs = len(epochs)
	for _, e := range epochs {
		info.FrozenTxs += e.Txs
		info.SpillBytes += e.SpillBytes
	}
	return info, d, nil
}
