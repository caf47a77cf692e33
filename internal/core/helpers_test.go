package core

import "github.com/specdag/specdag/internal/dataset"

// runAll drives the round engine to its configured horizon.
func runAll(s *Simulation) []RoundResult {
	for s.Round() < s.cfg.Rounds {
		s.RunRound()
	}
	return s.Results()
}

// runAsync constructs the event engine and steps it to its horizon.
func runAsync(fed *dataset.Federation, cfg AsyncConfig) (*AsyncResult, error) {
	a, err := NewAsyncSimulation(fed, cfg)
	if err != nil {
		return nil, err
	}
	for !a.done {
		a.step()
	}
	return a.Result(), nil
}
