package core

// This file adapts both simulators to the unified run API (internal/engine):
// they become cancelable, observable steppers that specdag.Run drives with a
// context, delivering typed round/publish events and drawing their fan-out
// workers from a shared pool.

import (
	"context"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
)

var (
	_ engine.Engine      = (*Simulation)(nil)
	_ engine.Snapshotter = (*Simulation)(nil)
	_ engine.Engine      = (*AsyncSimulation)(nil)
	_ engine.Snapshotter = (*AsyncSimulation)(nil)
)

// Name implements engine.Engine.
func (s *Simulation) Name() string { return "specdag" }

// Step implements engine.Engine: it runs one round and reports it, with one
// PublishEvent per transaction that entered the tangle (honest clients and
// attackers alike). The run is done once all configured rounds completed.
func (s *Simulation) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	if err := s.compactErr; err != nil {
		// The round itself completed and was reported; only its freeze
		// failed. Another Step carries on and the next round retries it.
		s.compactErr = nil
		return nil, false, err
	}
	if s.round >= s.cfg.Rounds {
		return nil, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	before := s.tangle.Size()
	rr := s.RunRound()
	res := &engine.StepResult{Round: engine.RoundEvent{
		Engine:   s.Name(),
		Round:    rr.Round,
		MeanAcc:  rr.MeanTrainedAcc(),
		MeanLoss: rr.MeanTrainedLoss(),
		DAGSize:  s.tangle.Size(),
		Detail:   &s.results[len(s.results)-1],
	}}
	for id := before; id < s.tangle.Size(); id++ {
		tx := s.tangle.MustGet(dag.ID(id))
		res.Round.Published++
		res.Publishes = append(res.Publishes, engine.PublishEvent{
			Engine:   s.Name(),
			Round:    rr.Round,
			Issuer:   tx.Issuer,
			Tx:       int(tx.ID),
			Acc:      tx.Meta.TestAcc,
			Poisoned: tx.Meta.Poisoned,
		})
	}
	return res, false, nil
}

// Name implements engine.Engine.
func (a *AsyncSimulation) Name() string { return "specdag-async" }

// Step implements engine.Engine at event granularity: one Step is one client
// activation, so cancellation takes effect between events. The RoundEvent's
// Round field is the event ordinal and Detail is an *AsyncEvent.
func (a *AsyncSimulation) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	if a.done {
		return nil, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	ev, err := a.step()
	if err != nil {
		return nil, false, err
	}
	if ev == nil {
		return nil, true, nil
	}
	res := &engine.StepResult{Round: engine.RoundEvent{
		Engine:   a.Name(),
		Round:    ev.Seq,
		Time:     ev.Time,
		MeanAcc:  ev.TrainedAcc,
		MeanLoss: ev.TrainedLoss,
		DAGSize:  a.tangle.Size(),
		Detail:   ev,
	}}
	if ev.Published {
		res.Round.Published = 1
		res.Publishes = append(res.Publishes, engine.PublishEvent{
			Engine: a.Name(),
			Round:  ev.Seq,
			Time:   ev.Time,
			Issuer: ev.Client,
			Tx:     -1, // assigned when the network delay elapses
			Acc:    ev.TrainedAcc,
		})
	}
	return res, false, nil
}
