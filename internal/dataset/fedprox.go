package dataset

import (
	"fmt"
	"math"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// FedProxConfig parameterizes the Synthetic(alpha, beta) dataset proposed by
// the FedProx paper (Li et al.) and used in §5.3.3 of the reproduced paper
// with alpha = beta = 0.5. Unlike the other generators, this one is fully
// specified in its source paper, so we implement it exactly:
//
//	u_k ~ N(0, alpha);  W_k[i][j] ~ N(u_k, 1);  b_k[i] ~ N(u_k, 1)
//	B_k ~ N(0, beta);   v_k[j] ~ N(B_k, 1)
//	x ~ N(v_k, Sigma) with Sigma_jj = j^{-1.2}
//	y = argmax(softmax(W_k x + b_k))
//
// alpha controls how much local models differ from each other; beta controls
// how much the local data distributions differ.
type FedProxConfig struct {
	// Clients defaults to the paper's 30.
	Clients int
	// Alpha and Beta default to 0.5 each (the paper's Synthetic(0.5, 0.5)).
	// The zero value selects the default; to genuinely use 0, set Exact0.
	Alpha float64
	Beta  float64
	// Exact0 forces Alpha = Beta = 0 (the IID variant Synthetic(0,0)).
	Exact0 bool
	// Dim is the input dimensionality (default 60); Classes the number of
	// output classes (default 10) — both from the FedProx reference code.
	Dim     int
	Classes int
	// MaxSamples caps per-client sample counts drawn from
	// lognormal(4, 2) + 50 (default cap 600 to bound simulation time).
	MaxSamples int
	// Seed drives all randomness.
	Seed int64
}

func (c FedProxConfig) withDefaults() FedProxConfig {
	if c.Clients == 0 {
		c.Clients = 30
	}
	if c.Exact0 {
		c.Alpha, c.Beta = 0, 0
	} else {
		if c.Alpha == 0 {
			c.Alpha = 0.5
		}
		if c.Beta == 0 {
			c.Beta = 0.5
		}
	}
	if c.Dim == 0 {
		c.Dim = 60
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = 600
	}
	return c
}

// FedProxSynthetic generates the Synthetic(alpha, beta) federation. There is
// no ground-truth clustering (every client's optimum differs), so all
// clients carry cluster 0 and NumClusters is 1.
func FedProxSynthetic(cfg FedProxConfig) *Federation {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed).Split("fedprox")

	// Diagonal covariance Sigma_jj = j^{-1.2} (1-indexed as in the paper).
	sigma := make([]float64, cfg.Dim)
	for j := range sigma {
		sigma[j] = math.Pow(float64(j+1), -1.2)
	}

	fed := &Federation{
		Name:        fmt.Sprintf("fedprox-synthetic(%.1f,%.1f)", cfg.Alpha, cfg.Beta),
		InputDim:    cfg.Dim,
		NumClasses:  cfg.Classes,
		NumClusters: 1,
	}

	fed.Clients = generateClients(cfg.Clients, func(id int) *Client {
		crng := rng.SplitIndex("client", id)

		uk := crng.Normal(0, math.Sqrt(cfg.Alpha))
		bk := crng.Normal(0, math.Sqrt(cfg.Beta))

		// Local true model.
		w := make([][]float64, cfg.Classes)
		for i := range w {
			w[i] = crng.NormalVec(cfg.Dim, uk, 1)
		}
		bias := crng.NormalVec(cfg.Classes, uk, 1)

		// Local input distribution center.
		vk := crng.NormalVec(cfg.Dim, bk, 1)

		n := crng.LogNormalInt(4, 2, 0, cfg.MaxSamples-50) + 50
		bld := NewBuilder(cfg.Dim, n, 0.1, crng.Split("split"))
		logits := make([]float64, cfg.Classes)
		for s := 0; s < n; s++ {
			x := bld.Grow(0)
			for j := range x {
				x[j] = crng.Normal(vk[j], math.Sqrt(sigma[j]))
			}
			for i := range logits {
				logits[i] = mathx.Dot(w[i], x) + bias[i]
			}
			bld.Relabel(mathx.ArgMax(logits))
		}

		train, test := bld.Parts()
		return &Client{ID: id, Cluster: 0, Train: train, Test: test}
	})
	if err := fed.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: generated invalid FedProx federation: %v", err))
	}
	return fed
}
