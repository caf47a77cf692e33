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

import (
	"bufio"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
)

// clientCheckpoint is the per-client carried state.
type clientCheckpoint struct {
	ID         int
	Poisoned   bool
	LastParams []float64
}

// checkpointState is the serialized simulation.
type checkpointState struct {
	snapshotCommon
	Poison  PoisonConfig // restoring label flips needs the attack parameters
	Round   int
	Rounds  int // configured horizon at checkpoint time (informational)
	Clients []clientCheckpoint
	Results []RoundResult
}

func (st *checkpointState) codec(c *dag.Codec) {
	dag.Num(c, &st.Round)
	dag.Num(c, &st.Rounds)
	p := &st.Poison
	c.Float(&p.Fraction)
	for _, v := range []*int{&p.FlipA, &p.FlipB, &p.StartRound} {
		dag.Num(c, v)
	}
	c.Bool(&p.Track)
	dag.Num(c, &p.RandomAttackers)
	dag.List(c, &st.Clients, func(cc *clientCheckpoint) {
		dag.Num(c, &cc.ID)
		c.Bool(&cc.Poisoned)
		c.Span(&cc.LastParams)
	})
	dag.List(c, &st.Results, func(r *RoundResult) {
		WalkRoundResult(c, r)
		// The slot of the wall-clock walk durations earlier builds kept:
		// written empty, read and discarded, so their files still read.
		var walkDurations []int64
		dag.Ints(c, &walkDurations)
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
// the number of bytes written: Checkpoint, encoded on the spot.
func (s *Simulation) WriteCheckpoint(w io.Writer) (int64, error) { return s.Checkpoint().WriteTo(w) }

// Checkpoint takes the simulation's full state between rounds as a value (a
// *Checkpoint) and encodes nothing. The simulation can keep running
// afterwards: the history and the clients' last models are pinned, not
// copied — the run appends rows and replaces models, it never writes into one
// it holds.
func (s *Simulation) Checkpoint() engine.Checkpoint {
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
	return s.takeCheckpoint(checkpointMagic, &st)
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
	if err := s.restore(&st.snapshotCommon, d, len(st.Clients)); err != nil {
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
// Kind is "sync" (SDC3) or "async" (SDA3); Round/Rounds describe
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
	SpillBytes   int64 // bytes the frozen epochs wrote to the spill log
}

// InspectCheckpoint reads a checkpoint of either kind — synchronous (SDC3) or
// asynchronous (SDA3), told apart by the magic's family letter — and returns
// its summary along with the embedded tangle.
func InspectCheckpoint(r io.Reader) (*CheckpointInfo, *dag.DAG, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	var st snapshotState = &checkpointState{}
	want := checkpointMagic
	if string(magic[:3]) == "SDA" {
		st, want = &asyncCheckpointState{}, asyncCheckpointMagic
	}
	d, err := readSnapshot(br, want, st)
	if err != nil {
		return nil, nil, err
	}
	info := st.info()
	epochs := st.common().Epochs
	info.FrozenEpochs = len(epochs)
	for _, e := range epochs {
		info.FrozenTxs += e.Txs
		info.SpillBytes += e.SpillBytes
	}
	return info, d, nil
}
