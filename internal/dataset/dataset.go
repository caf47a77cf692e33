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
// pointers. Generators build that storage directly through Builder; Split,
// Clone and Gather materialize new contiguous datasets.
package dataset

import (
	"fmt"

	"github.com/specdag/specdag/internal/mathx"
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

// FromSamples copies the given samples into fresh contiguous storage.
func FromSamples(samples ...Sample) Dataset {
	if len(samples) == 0 {
		return Dataset{}
	}
	b := NewBuilder(len(samples[0].X), len(samples))
	for _, s := range samples {
		b.Append(s.X, s.Y)
	}
	return b.Dataset()
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
// parts — and therefore every downstream metric — is unchanged.
func (d Dataset) Split(testFrac float64, rng *xrand.RNG) (train, test Dataset) {
	n := d.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	nTest := int(float64(n) * testFrac)
	if n >= 2 {
		if nTest == 0 {
			nTest = 1
		}
		if nTest == n {
			nTest = n - 1
		}
	}
	return d.Gather(perm[nTest:]), d.Gather(perm[:nTest])
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

// Builder accumulates samples into one contiguous backing store. Generators
// pre-size it with the expected sample count and fill rows in place (Grow),
// so building a federation performs one feature allocation per client
// instead of one per sample.
type Builder struct {
	cols int
	x    []float64
	y    []int
}

// NewBuilder returns a builder for rows of the given width, pre-allocating
// capacity rows.
func NewBuilder(cols, capacity int) *Builder {
	if cols < 0 || capacity < 0 {
		panic(fmt.Sprintf("dataset: NewBuilder(%d, %d) with negative argument", cols, capacity))
	}
	return &Builder{cols: cols, x: make([]float64, 0, cols*capacity), y: make([]int, 0, capacity)}
}

// Len returns the number of samples appended so far.
func (b *Builder) Len() int { return len(b.y) }

// Grow appends a zeroed sample with label y and returns the zero-copy view
// of its feature row for in-place filling.
func (b *Builder) Grow(y int) []float64 {
	start := len(b.x)
	need := start + b.cols
	if need <= cap(b.x) {
		b.x = b.x[:need]
	} else {
		b.x = append(b.x, make([]float64, b.cols)...)
	}
	row := b.x[start:need]
	mathx.Fill(row, 0) // callers rely on zeroed rows (one-hot encoders)
	b.y = append(b.y, y)
	return row
}

// Relabel replaces the label of the most recently appended sample — for
// generators whose label depends on the filled feature row.
func (b *Builder) Relabel(y int) {
	b.y[len(b.y)-1] = y
}

// Append copies x as a new sample with label y. It panics if x does not
// match the builder's row width.
func (b *Builder) Append(x []float64, y int) {
	if len(x) != b.cols {
		panic(fmt.Sprintf("dataset: Builder.Append row of %d values, want %d", len(x), b.cols))
	}
	copy(b.Grow(y), x)
}

// Dataset returns the accumulated samples. The dataset views the builder's
// storage; the builder must not be reused afterwards.
func (b *Builder) Dataset() Dataset {
	return Dataset{X: mathx.Matrix{Data: b.x, Rows: len(b.y), Cols: b.cols}, Y: b.y}
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
