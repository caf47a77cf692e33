// Package dataset defines the federated data model (samples, per-client
// train/test splits, cluster labels) and the synthetic generators that stand
// in for the paper's datasets.
//
// The original evaluation uses FEMNIST/LEAF, a Shakespeare+Goethe corpus and
// CIFAR-100 — none of which can be fetched in this offline, stdlib-only
// reproduction. Each generator here reproduces the property the paper's
// evaluation actually depends on: cluster-structured non-IID client data in
// which model updates from the same cluster help and updates from other
// clusters hurt. Each generator's Config comment says what it stands in for.
//
// Storage is flat: a Dataset keeps all features in one contiguous row-major
// mathx.Matrix plus a label slice, so the training and evaluation hot paths
// stream cache-line-sequential memory instead of chasing per-sample
// pointers. A generator draws each client's train/test split first and
// writes every sample straight into its final row through Builder; no
// staging copy is gathered afterwards. Clients are generated side by side
// (generateClients), each from its own seed split. Split, Clone and Gather
// materialize new contiguous datasets from existing ones.
package dataset

import (
	"fmt"
	"runtime"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/xrand"
)

// Sample is a single labeled example. It is the per-sample view/exchange
// type; bulk storage lives in Dataset's flat matrix.
type Sample struct {
	X []float64
	Y int
}

// Dataset is an ordered collection of samples over one contiguous backing
// store: X holds the features row-major (one row per sample), Y the labels.
// The struct is a view — copying it aliases the storage; Clone deep-copies.
type Dataset struct {
	X mathx.Matrix
	Y []int
}

// FromSamples copies the given samples into fresh contiguous storage. It
// panics if the samples' feature widths differ.
func FromSamples(samples ...Sample) Dataset {
	if len(samples) == 0 {
		return Dataset{}
	}
	cols := len(samples[0].X)
	d := Dataset{X: mathx.NewMatrix(len(samples), cols), Y: make([]int, len(samples))}
	for i, s := range samples {
		if len(s.X) != cols {
			panic(fmt.Sprintf("dataset: FromSamples sample %d has %d values, want %d", i, len(s.X), cols))
		}
		copy(d.X.Row(i), s.X)
		d.Y[i] = s.Y
	}
	return d
}

// Len returns the number of samples.
func (d Dataset) Len() int { return len(d.Y) }

// Row returns the zero-copy feature view of sample i.
func (d Dataset) Row(i int) []float64 { return d.X.Row(i) }

// At returns sample i; its X aliases the dataset's storage.
func (d Dataset) At(i int) Sample { return Sample{X: d.X.Row(i), Y: d.Y[i]} }

// CopyLabels returns a fresh copy of the label slice — for consumers that
// mutate labels privately (the simulator's poisoning attack) without
// touching the federation's data.
func (d Dataset) CopyLabels() []int {
	return append([]int(nil), d.Y...)
}

// Clone returns a deep copy of the dataset (features and labels copied).
func (d Dataset) Clone() Dataset {
	return Dataset{X: d.X.Clone(), Y: d.CopyLabels()}
}

// Gather returns a new contiguous dataset holding rows idx[0], idx[1], ...
// in order — the batched row gather behind Split.
func (d Dataset) Gather(idx []int) Dataset {
	out := Dataset{X: mathx.NewMatrix(len(idx), d.X.Cols), Y: make([]int, len(idx))}
	mathx.GatherRows(out.X, d.X, idx)
	for k, i := range idx {
		out.Y[k] = d.Y[i]
	}
	return out
}

// Split shuffles the dataset with rng and divides it into train and test
// partitions where the test partition holds testFrac of the samples
// (rounded, at least one sample in each part when len >= 2). The paper uses
// a 90:10 train-test split per client. Both parts get their own contiguous
// storage; the receiver is left untouched.
//
// The shuffle permutes an index vector with exactly the same rng.Shuffle
// call the sample-slice implementation used, so the sample order of both
// parts — and therefore every downstream metric — is unchanged. Builder
// draws the same split before the samples exist.
func (d Dataset) Split(testFrac float64, rng *xrand.RNG) (train, test Dataset) {
	perm := make([]int, d.Len())
	nTest := splitPerm(perm, testFrac, rng)
	return d.Gather(perm[nTest:]), d.Gather(perm[:nTest])
}

// splitPerm is the split rule shared by Split and Builder: it fills perm
// with a shuffle of 0..len(perm)-1 and returns the test count nTest, so the
// test part is perm[:nTest] and the train part perm[nTest:].
func splitPerm(perm []int, testFrac float64, rng *xrand.RNG) (nTest int) {
	n := len(perm)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	nTest = int(float64(n) * testFrac)
	if n >= 2 {
		if nTest == 0 {
			nTest = 1
		}
		if nTest == n {
			nTest = n - 1
		}
	}
	return nTest
}

// CountLabels returns a histogram over labels 0..numClasses-1. Labels outside
// the range are ignored.
func (d Dataset) CountLabels(numClasses int) []int {
	counts := make([]int, numClasses)
	for _, y := range d.Y {
		if y >= 0 && y < numClasses {
			counts[y]++
		}
	}
	return counts
}

// Builder writes one client's n samples straight into the train or test
// row Split would have moved them to. The split is drawn at construction —
// splitPerm with the rng Split would get — so sample i's row is known
// before the sample is generated, and building a client performs one
// feature allocation and no gather. Test rows come first in that slab, train
// rows after them; Parts returns the two as adjacent, capacity-capped views.
type Builder struct {
	cols  int
	nTest int
	next  int       // samples handed out so far
	row   []int     // row[i] is sample i's row in x: the inverse of the split
	x     []float64 // n rows of cols values
	y     []int
}

// NewBuilder returns a builder for n rows of the given width, split into
// train and test parts as Split(testFrac, rng) would split them.
func NewBuilder(cols, n int, testFrac float64, rng *xrand.RNG) *Builder {
	if cols < 0 || n < 0 {
		panic(fmt.Sprintf("dataset: NewBuilder(%d, %d) with negative argument", cols, n))
	}
	idx := make([]int, 2*n)
	perm, row := idx[:n], idx[n:]
	nTest := splitPerm(perm, testFrac, rng)
	for k, i := range perm {
		row[i] = k
	}
	return &Builder{cols: cols, nTest: nTest, row: row, x: make([]float64, n*cols), y: make([]int, n)}
}

// Grow hands out the next sample's row, labeled y, for in-place filling.
// Rows come zeroed from the slab's allocation and each is handed out once
// (one-hot encoders rely on both); Grow panics past the builder's n samples.
func (b *Builder) Grow(y int) []float64 {
	if b.next == len(b.row) {
		panic(fmt.Sprintf("dataset: Builder.Grow past its %d samples", len(b.row)))
	}
	r := b.row[b.next]
	b.next++
	b.y[r] = y
	return b.x[r*b.cols : (r+1)*b.cols : (r+1)*b.cols]
}

// Relabel replaces the label of the most recently grown sample — for
// generators whose label depends on the filled feature row.
func (b *Builder) Relabel(y int) {
	b.y[b.row[b.next-1]] = y
}

// Parts returns the train and test datasets. They view the builder's
// storage; it panics unless all n samples were grown.
func (b *Builder) Parts() (train, test Dataset) {
	if b.next != len(b.row) {
		panic(fmt.Sprintf("dataset: Builder.Parts after %d of %d samples", b.next, len(b.row)))
	}
	n, cut := len(b.y), b.nTest*b.cols
	test = Dataset{X: mathx.Matrix{Data: b.x[:cut:cut], Rows: b.nTest, Cols: b.cols}, Y: b.y[:b.nTest:b.nTest]}
	train = Dataset{X: mathx.Matrix{Data: b.x[cut:], Rows: n - b.nTest, Cols: b.cols}, Y: b.y[b.nTest:]}
	return train, test
}

// generation is the process's one pool of generator helpers, GOMAXPROCS
// slots as the process starts. Generation runs before any engine exists, so
// it has no run's budget to draw on; concurrent federations (a daemon's
// submits, ThroughputGrid's lines) share this one instead of each starting
// GOMAXPROCS goroutines.
var generation = par.NewBudget(runtime.GOMAXPROCS(0))

// generateClients builds a federation's n clients side by side, client id
// into slot id: on the caller's goroutine and up to GOMAXPROCS−1 helpers
// from generation, so N concurrent calls run at most N + GOMAXPROCS − 1
// goroutines. client(id) must draw only from the client's own seed split and
// read only shared state, so the federation is the same for any goroutine
// count.
func generateClients(n int, client func(id int) *Client) []*Client {
	clients := make([]*Client, n)
	par.ForEachIn(generation, runtime.GOMAXPROCS(0), n, func(id int) { clients[id] = client(id) })
	return clients
}

// Client is one federated participant with a private train/test split and a
// ground-truth cluster assignment (used only for evaluation metrics, never
// by the learning algorithm itself).
type Client struct {
	ID      int
	Cluster int
	Train   Dataset
	Test    Dataset
}

// Federation is a complete federated dataset: all clients plus the model
// input/output dimensions.
type Federation struct {
	Name        string
	Clients     []*Client
	InputDim    int
	NumClasses  int
	NumClusters int
}

// Validate checks structural invariants of the federation: consistent
// feature dimensions, coherent flat storage, labels in range, cluster labels
// in range, and non-empty client splits.
func (f *Federation) Validate() error {
	if len(f.Clients) == 0 {
		return fmt.Errorf("dataset: federation %q has no clients", f.Name)
	}
	for _, c := range f.Clients {
		if c.Train.Len() == 0 || c.Test.Len() == 0 {
			return fmt.Errorf("dataset: client %d has empty train or test set", c.ID)
		}
		if c.Cluster < 0 || c.Cluster >= f.NumClusters {
			return fmt.Errorf("dataset: client %d cluster %d out of range [0,%d)", c.ID, c.Cluster, f.NumClusters)
		}
		for _, part := range []Dataset{c.Train, c.Test} {
			if part.X.Rows != len(part.Y) || len(part.X.Data) != part.X.Rows*part.X.Cols {
				return fmt.Errorf("dataset: client %d has inconsistent flat storage (%d rows x %d cols, %d labels, %d values)",
					c.ID, part.X.Rows, part.X.Cols, len(part.Y), len(part.X.Data))
			}
			if part.X.Cols != f.InputDim {
				return fmt.Errorf("dataset: client %d sample dim %d, want %d", c.ID, part.X.Cols, f.InputDim)
			}
			for _, y := range part.Y {
				if y < 0 || y >= f.NumClasses {
					return fmt.Errorf("dataset: client %d label %d out of range [0,%d)", c.ID, y, f.NumClasses)
				}
			}
		}
	}
	return nil
}

// ClusterOf returns a lookup from client ID to ground-truth cluster.
func (f *Federation) ClusterOf() map[int]int {
	m := make(map[int]int, len(f.Clients))
	for _, c := range f.Clients {
		m[c.ID] = c.Cluster
	}
	return m
}

// BasePureness is the approval pureness expected if approvals were spread
// randomly across clusters (Table 2's "base pureness" column): 1/numClusters
// for equally sized clusters.
func (f *Federation) BasePureness() float64 {
	if f.NumClusters == 0 {
		return 0
	}
	return 1 / float64(f.NumClusters)
}

// ClientsPerCluster returns the number of clients in each cluster.
func (f *Federation) ClientsPerCluster() []int {
	counts := make([]int, f.NumClusters)
	for _, c := range f.Clients {
		if c.Cluster >= 0 && c.Cluster < f.NumClusters {
			counts[c.Cluster]++
		}
	}
	return counts
}
