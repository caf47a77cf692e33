package dataset

import (
	"fmt"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// CIFARConfig parameterizes the synthetic stand-in for the paper's
// CIFAR-100 federation (§5.1.3): 100 classes organized into 20 superclasses
// of 5 subclasses each, allocated to 94 clients with the Pachinko Allocation
// Method (PAM) — per-client Dirichlet draws over superclasses and, within a
// superclass, over its subclasses. Clients hold data from more than one
// superclass, so there is no clean client↔cluster affiliation; the cluster
// label is the majority superclass (ties broken randomly), as in the paper.
//
// The original PAM draws real CIFAR images without replacement from a finite
// pool; our generator synthesizes fresh samples, so replacement is
// irrelevant — the mixed-membership allocation structure is what matters and
// is preserved.
type CIFARConfig struct {
	// Clients defaults to the paper's 94.
	Clients int
	// Superclasses (default 20) each contain SubPerSuper (default 5)
	// subclasses; classes = Superclasses*SubPerSuper.
	Superclasses int
	SubPerSuper  int
	// TrainPerClient / TestPerClient size each client's split
	// (defaults 100/20).
	TrainPerClient int
	TestPerClient  int
	// Dim is the feature dimensionality (default 64).
	Dim int
	// RootAlpha is the symmetric Dirichlet concentration over superclasses
	// (default 0.1 — strongly non-IID, as in TensorFlow Federated's split).
	RootAlpha float64
	// LeafAlpha is the concentration over subclasses within a superclass
	// (default 10 — near-uniform within a drawn superclass).
	LeafAlpha float64
	// SuperStd scales superclass prototype spread, SubStd the subclass
	// offset from its superclass prototype, NoiseStd the per-sample noise
	// (defaults 1.0 / 0.6 / 0.6). SubStd < SuperStd makes subclasses of a
	// superclass related, like the semantic grouping in CIFAR-100.
	SuperStd float64
	SubStd   float64
	NoiseStd float64
	// Seed drives all randomness.
	Seed int64
}

func (c CIFARConfig) withDefaults() CIFARConfig {
	if c.Clients == 0 {
		c.Clients = 94
	}
	if c.Superclasses == 0 {
		c.Superclasses = 20
	}
	if c.SubPerSuper == 0 {
		c.SubPerSuper = 5
	}
	if c.TrainPerClient == 0 {
		c.TrainPerClient = 100
	}
	if c.TestPerClient == 0 {
		c.TestPerClient = 20
	}
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.RootAlpha == 0 {
		c.RootAlpha = 0.1
	}
	if c.LeafAlpha == 0 {
		c.LeafAlpha = 10
	}
	if c.SuperStd == 0 {
		c.SuperStd = 1.0
	}
	if c.SubStd == 0 {
		c.SubStd = 0.6
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.6
	}
	return c
}

// CIFAR100PAM generates the synthetic CIFAR-100 federation with
// Pachinko-style client allocation.
func CIFAR100PAM(cfg CIFARConfig) *Federation {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed).Split("cifar100")

	numClasses := cfg.Superclasses * cfg.SubPerSuper

	// Hierarchical prototypes: subclass = superclass center + offset.
	prng := rng.Split("prototypes")
	protos := make([][]float64, numClasses)
	for super := 0; super < cfg.Superclasses; super++ {
		center := prng.NormalVec(cfg.Dim, 0, cfg.SuperStd)
		for sub := 0; sub < cfg.SubPerSuper; sub++ {
			p := mathx.CloneVec(center)
			offset := prng.NormalVec(cfg.Dim, 0, cfg.SubStd)
			mathx.AddTo(p, offset)
			protos[super*cfg.SubPerSuper+sub] = p
		}
	}

	fed := &Federation{
		Name:        "cifar100",
		InputDim:    cfg.Dim,
		NumClasses:  numClasses,
		NumClusters: cfg.Superclasses,
	}

	total := cfg.TrainPerClient + cfg.TestPerClient
	testFrac := float64(cfg.TestPerClient) / float64(total)
	fed.Clients = generateClients(cfg.Clients, func(id int) *Client {
		crng := rng.SplitIndex("client", id)

		// Pachinko allocation: client-specific Dirichlet over superclasses,
		// then one Dirichlet per superclass over its subclasses.
		rootDist := crng.Dirichlet(cfg.RootAlpha, cfg.Superclasses)
		leafDists := make([][]float64, cfg.Superclasses)

		bld := NewBuilder(cfg.Dim, total, testFrac, crng.Split("split"))
		superCounts := make([]int, cfg.Superclasses)
		for i := 0; i < total; i++ {
			super := crng.WeightedChoice(rootDist)
			if leafDists[super] == nil {
				leafDists[super] = crng.Dirichlet(cfg.LeafAlpha, cfg.SubPerSuper)
			}
			sub := crng.WeightedChoice(leafDists[super])
			class := super*cfg.SubPerSuper + sub
			sampleAroundInto(crng, protos[class], cfg.NoiseStd, bld.Grow(class))
			superCounts[super]++
		}

		// Cluster label: the majority superclass, ties broken randomly.
		cluster := majorityWithRandomTies(superCounts, crng.Split("tie"))
		train, test := bld.Parts()
		return &Client{ID: id, Cluster: cluster, Train: train, Test: test}
	})
	if err := fed.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: generated invalid CIFAR federation: %v", err))
	}
	return fed
}

// majorityWithRandomTies returns the index of the maximum count, choosing
// uniformly among tied maxima.
func majorityWithRandomTies(counts []int, rng *xrand.RNG) int {
	best := -1
	var ties []int
	for i, c := range counts {
		switch {
		case best == -1 || c > counts[best]:
			best = i
			ties = ties[:0]
			ties = append(ties, i)
		case c == counts[best]:
			ties = append(ties, i)
		}
	}
	if len(ties) > 1 {
		return ties[rng.Intn(len(ties))]
	}
	return best
}
