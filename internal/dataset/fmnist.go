package dataset

import (
	"fmt"

	"github.com/specdag/specdag/internal/xrand"
)

// FMNISTConfig parameterizes the synthetic stand-in for the paper's
// FMNIST-clustered dataset (§5.1.1): a 10-class recognition task whose
// clients are synthetically grouped into three disjoint class clusters
// {0,1,2,3}, {4,5,6} and {7,8,9}.
//
// Samples are Gaussian perturbations of per-class prototype vectors. The
// prototypes are drawn once per federation seed, so all clients of a cluster
// share the same underlying class-conditional distributions — exactly the
// property that makes intra-cluster model averaging productive and
// cross-cluster averaging counter-productive.
type FMNISTConfig struct {
	// Clients is the total number of clients, spread as evenly as possible
	// over the three clusters. Default 100 (the paper's Fig. 5 subset).
	Clients int
	// TrainPerClient / TestPerClient size each client's split. Defaults
	// 100/20, mirroring Table 1 (10 local batches of size 10 per round).
	TrainPerClient int
	TestPerClient  int
	// Dim is the feature dimensionality (default 64). The paper uses 28x28
	// images with a CNN; a 64-dim prototype task preserves per-cluster
	// learnability without a conv stack (the package comment has the
	// rationale for the substitution).
	Dim int
	// NoiseStd is the class-conditional noise (default 1.0).
	NoiseStd float64
	// RelaxedMin/RelaxedMax, when positive, build the paper's *relaxed*
	// variant (Fig. 8): each client draws a fraction in [RelaxedMin,
	// RelaxedMax] of its samples from classes outside its cluster.
	RelaxedMin float64
	RelaxedMax float64
	// ByWriter, when true, abandons class clustering and instead gives every
	// client all 10 classes plus a per-client "writing style" offset — the
	// stand-in for the original FEMNIST split by author used in the
	// poisoning and scalability experiments (§5.3.4, §5.3.5).
	ByWriter bool
	// WriterStd is the standard deviation of the per-client style offset
	// used with ByWriter (default 0.5).
	WriterStd float64
	// Seed drives all randomness of the generator.
	Seed int64
}

func (c FMNISTConfig) withDefaults() FMNISTConfig {
	if c.Clients == 0 {
		c.Clients = 100
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
	if c.NoiseStd == 0 {
		c.NoiseStd = 1.0
	}
	if c.WriterStd == 0 {
		c.WriterStd = 0.5
	}
	return c
}

// fmnistClusters is the paper's synthetic class clustering.
var fmnistClusters = [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}

// FMNISTClustered generates the synthetic FMNIST-clustered federation.
func FMNISTClustered(cfg FMNISTConfig) *Federation {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed).Split("fmnist")

	const numClasses = 10
	protos := classPrototypes(rng.Split("prototypes"), numClasses, cfg.Dim)

	classToCluster := make([]int, numClasses)
	for ci, classes := range fmnistClusters {
		for _, cl := range classes {
			classToCluster[cl] = ci
		}
	}

	name := "fmnist-clustered"
	numClusters := len(fmnistClusters)
	if cfg.ByWriter {
		name = "fmnist-bywriter"
		numClusters = 1
	} else if cfg.RelaxedMax > 0 {
		name = "fmnist-relaxed"
	}

	fed := &Federation{
		Name:        name,
		InputDim:    cfg.Dim,
		NumClasses:  numClasses,
		NumClusters: numClusters,
	}

	total := cfg.TrainPerClient + cfg.TestPerClient
	testFrac := float64(cfg.TestPerClient) / float64(total)
	fed.Clients = generateClients(cfg.Clients, func(id int) *Client {
		crng := rng.SplitIndex("client", id)
		bld := NewBuilder(cfg.Dim, total, testFrac, crng.Split("split"))
		cluster := 0
		if cfg.ByWriter {
			style := crng.Split("style").NormalVec(cfg.Dim, 0, cfg.WriterStd)
			for i := 0; i < total; i++ {
				class := crng.Intn(numClasses)
				x := bld.Grow(class)
				sampleAroundInto(crng, protos[class], cfg.NoiseStd, x)
				for d := range x {
					x[d] += style[d]
				}
			}
		} else {
			cluster = id % numClusters
			classes := fmnistClusters[cluster]
			foreignFrac := 0.0
			if cfg.RelaxedMax > 0 {
				lo, hi := cfg.RelaxedMin, cfg.RelaxedMax
				foreignFrac = lo + crng.Float64()*(hi-lo)
			}
			for i := 0; i < total; i++ {
				var class int
				if foreignFrac > 0 && crng.Bool(foreignFrac) {
					// Draw uniformly from the classes outside this cluster.
					for {
						class = crng.Intn(numClasses)
						if classToCluster[class] != cluster {
							break
						}
					}
				} else {
					class = classes[crng.Intn(len(classes))]
				}
				sampleAroundInto(crng, protos[class], cfg.NoiseStd, bld.Grow(class))
			}
		}
		train, test := bld.Parts()
		return &Client{ID: id, Cluster: cluster, Train: train, Test: test}
	})
	if err := fed.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: generated invalid FMNIST federation: %v", err))
	}
	return fed
}

// classPrototypes draws one prototype vector per class.
func classPrototypes(rng *xrand.RNG, classes, dim int) [][]float64 {
	protos := make([][]float64, classes)
	for c := range protos {
		protos[c] = rng.NormalVec(dim, 0, 1)
	}
	return protos
}

// sampleAroundInto fills dst with prototype + N(0, std^2) noise, drawing
// the per-dimension noise in the same order as the old allocating variant so
// generated federations are byte-identical.
func sampleAroundInto(rng *xrand.RNG, proto []float64, std float64, dst []float64) {
	for i, p := range proto {
		dst[i] = p + rng.Normal(0, std)
	}
}
