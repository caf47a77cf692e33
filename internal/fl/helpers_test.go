package fl

import (
	"context"

	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
)

// runFed drives FedAvg/FedProx to completion through the unified run loop.
func runFed(fed *dataset.Federation, cfg Config) (*Result, error) {
	f, err := NewFederated(fed, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := engine.Run(context.Background(), f); err != nil {
		return nil, err
	}
	return f.Result(), nil
}

// runGossip is runFed's gossip-learning counterpart.
func runGossip(fed *dataset.Federation, cfg GossipConfig) (*Result, error) {
	g, err := NewGossip(fed, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := engine.Run(context.Background(), g); err != nil {
		return nil, err
	}
	return g.Result(), nil
}
