// Package tipselect implements the tip-selection strategies of the
// specializing DAG (paper §4.2).
//
// Tip selection is a random walk through the DAG in the opposite direction
// of approvals (from the past toward the tips). The paper's contribution is
// the accuracy-aware walk (Algorithm 1): at every step all children of the
// current transaction are evaluated on the walker's local test data and the
// walk moves to a child with probability proportional to
//
//	weight = exp(normalized × α)
//
// where normalized is the child's accuracy normalized per Eq. 1 (standard)
// or Eq. 3 (dynamic). α tunes determinism: high α follows the best child
// almost surely (specialization), low α approaches a uniform walk
// (generalization).
//
// Also provided: the classic cumulative-weight walk of traditional tangles
// (Fig. 3) and uniform random tip selection (the "random tip selector"
// poisoning baseline of §5.3.4).
package tipselect

import (
	"math"
	"strconv"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// Graph is the read view of a tangle that tip selection walks over: either
// a full *dag.DAG, a partial-visibility *dag.View (non-ideal transaction
// dissemination) or a *dag.Overlay (the tangle plus publications not yet
// added). All methods mirror the corresponding dag.DAG methods.
//
// Concurrency: the parallel round engine runs many walkers over one Graph at
// the same time, so a Graph shared between walkers must tolerate concurrent
// method calls as long as no transaction is added during the walks. *dag.DAG
// satisfies this unconditionally (internal RWMutex). *dag.View is owned by a
// single client and must not be shared, but walking it concurrently with
// other clients' walks is safe because its reads of the underlying DAG go
// through the DAG's lock.
type Graph interface {
	Genesis() *dag.Transaction
	MustGet(id dag.ID) *dag.Transaction
	Children(id dag.ID) []dag.ID
	Tips() []dag.ID
	SampleAtDepth(rng *xrand.RNG, minDepth, maxDepth int) *dag.Transaction
	CumulativeWeights() map[dag.ID]int
}

var (
	_ Graph = (*dag.DAG)(nil)
	_ Graph = (*dag.View)(nil)
	_ Graph = (*dag.Overlay)(nil)
)

// Evaluator scores a transaction's model on a walker's local data, returning
// an accuracy in [0, 1]. Each client owns one Evaluator over its private
// test split. Implementations may memoize by transaction ID: published
// parameters are immutable and local test data never changes.
type Evaluator interface {
	Accuracy(tx *dag.Transaction) float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(tx *dag.Transaction) float64

// Accuracy implements Evaluator.
func (f EvaluatorFunc) Accuracy(tx *dag.Transaction) float64 { return f(tx) }

// stepScratch is per-walk reusable memory: one SelectTip call allocates at
// most one scratch set and reuses it across every step of the walk instead
// of allocating fresh slices per step.
type stepScratch struct {
	txs     []*dag.Transaction
	accs    []float64
	weights []float64
}

// WalkStats accounts for the cost of one tip selection, the quantity behind
// the scalability experiment (Fig. 15): the number of steps taken and the
// number of child-model evaluations performed.
type WalkStats struct {
	Steps       int
	Evaluations int
}

// Add accumulates other into s.
func (s *WalkStats) Add(other WalkStats) {
	s.Steps += other.Steps
	s.Evaluations += other.Evaluations
}

// Selector chooses one tip of the DAG for approval. Implementations must be
// stateless with respect to the walk (all per-walk state is local) so a
// single Selector value can be shared across clients — including across the
// concurrently running walkers of the parallel round engine, which share one
// Selector value without synchronization.
type Selector interface {
	// Name identifies the selector in logs and experiment output.
	Name() string
	// SelectTip walks d and returns the chosen tip along with cost stats.
	// eval provides the walker's local accuracy function; rng drives the
	// randomness of the walk.
	SelectTip(d Graph, eval Evaluator, rng *xrand.RNG) (*dag.Transaction, WalkStats)
}

// SelectTips runs n independent walks and returns the chosen tips (which may
// repeat, as in the paper: a client may approve the same transaction twice).
func SelectTips(s Selector, d Graph, eval Evaluator, rng *xrand.RNG, n int) ([]*dag.Transaction, WalkStats) {
	tips := make([]*dag.Transaction, 0, n)
	var total WalkStats
	for i := 0; i < n; i++ {
		tip, st := s.SelectTip(d, eval, rng)
		tips = append(tips, tip)
		total.Add(st)
	}
	return tips, total
}

// Normalization selects how child accuracies are normalized before
// exponentiation.
type Normalization int

const (
	// NormStandard is Eq. 1: normalized = acc − max(accs).
	NormStandard Normalization = iota
	// NormDynamic is Eq. 3: normalized* = (acc − max) / (max − min),
	// which adapts the weighting to the observed accuracy spread.
	NormDynamic
)

// String returns the normalization's name.
func (n Normalization) String() string {
	switch n {
	case NormStandard:
		return "standard"
	case NormDynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// Weights converts child accuracies into positive selection weights per
// Eqs. 1–3. The maximum-accuracy child always receives weight 1. With
// NormDynamic and a degenerate spread (max == min) all weights are 1,
// yielding a uniform choice.
func Weights(accs []float64, alpha float64, norm Normalization) []float64 {
	if len(accs) == 0 {
		return nil
	}
	return WeightsInto(make([]float64, 0, len(accs)), accs, alpha, norm)
}

// WeightsInto appends the selection weights of accs to dst (which may be
// nil) and returns it — the allocation-free variant the walk loop reuses a
// buffer with. Values are identical to Weights'.
func WeightsInto(dst []float64, accs []float64, alpha float64, norm Normalization) []float64 {
	if len(accs) == 0 {
		return dst
	}
	min, max := mathx.MinMax(accs)
	spread := max - min
	for _, a := range accs {
		normalized := a - max
		if norm == NormDynamic {
			if spread > 0 {
				normalized /= spread
			} else {
				normalized = 0
			}
		}
		dst = append(dst, math.Exp(normalized*alpha))
	}
	return dst
}

// AccuracyWalk is the paper's accuracy-biased random walk (Algorithm 1).
type AccuracyWalk struct {
	// Alpha is the specialization parameter α of Eq. 2.
	Alpha float64
	// Norm selects Eq. 1 (standard) or Eq. 3 (dynamic) normalization.
	Norm Normalization
	// DepthMin/DepthMax, when positive, start the walk at a transaction
	// sampled at that depth interval from the tips (§5.3.5 uses 15–25,
	// following Popov). When zero the walk starts at genesis.
	DepthMin int
	DepthMax int
}

var _ Selector = AccuracyWalk{}

// Name implements Selector.
func (w AccuracyWalk) Name() string {
	return "accuracy-walk(alpha=" + trimFloat(w.Alpha) + "," + w.Norm.String() + ")"
}

// SelectTip implements Selector.
func (w AccuracyWalk) SelectTip(d Graph, eval Evaluator, rng *xrand.RNG) (*dag.Transaction, WalkStats) {
	cur := walkStart(d, rng, w.DepthMin, w.DepthMax)
	var stats WalkStats
	var buf stepScratch
	// The engines' evaluator is an *EvalCache, which scores a step's children
	// in one batch and memoizes the step's weight vector; any other Evaluator
	// (a bare function) is asked child by child — same values, same tips.
	cache, _ := eval.(*EvalCache)
	for {
		children := d.Children(cur.ID)
		if len(children) == 0 {
			return cur, stats
		}
		stats.Steps++
		// One evaluation per child either way: Fig. 15's walk-cost metric
		// counts accuracy lookups, not what the caches short-circuit.
		stats.Evaluations += len(children)
		var weights []float64
		if cache != nil && !cache.Disable && len(children) == 1 {
			// One child's weight is exp(0·α) whatever it scores (WeightsInto
			// of one finite accuracy, either normalisation), so it is neither
			// scored nor memoized; the draw is still made (on the stack).
			weights = []float64{math.Exp(0 * w.Alpha)}
		} else if cache != nil {
			// A transaction's weights are pure in its child set and the
			// walker's cached accuracies, so repeat visits skip the whole
			// scoring step; a miss appends them to the cache's arena.
			weights = cache.StepWeights(cur.ID, len(children), w.Alpha, w.Norm, func(dst []float64) []float64 {
				buf.txs = buf.txs[:0]
				for _, id := range children {
					buf.txs = append(buf.txs, d.MustGet(id))
				}
				buf.accs = cache.AccuracyManyInto(buf.accs[:0], buf.txs)
				return WeightsInto(dst, buf.accs, w.Alpha, w.Norm)
			})
		} else {
			buf.accs = buf.accs[:0]
			for _, id := range children {
				buf.accs = append(buf.accs, eval.Accuracy(d.MustGet(id)))
			}
			buf.weights = WeightsInto(buf.weights[:0], buf.accs, w.Alpha, w.Norm)
			weights = buf.weights
		}
		next := children[rng.WeightedChoice(weights)]
		cur = d.MustGet(next)
	}
}

// WeightedWalk is the traditional tangle walk of Fig. 3: the bias comes from
// the cumulative weight of each child's subgraph instead of local model
// accuracy. Alpha plays the same determinism role as in the accuracy walk.
type WeightedWalk struct {
	Alpha    float64
	DepthMin int
	DepthMax int
}

var _ Selector = WeightedWalk{}

// Name implements Selector.
func (w WeightedWalk) Name() string { return "weighted-walk(alpha=" + trimFloat(w.Alpha) + ")" }

// SelectTip implements Selector. The evaluator is unused; the walk is a
// function of DAG structure only.
func (w WeightedWalk) SelectTip(d Graph, _ Evaluator, rng *xrand.RNG) (*dag.Transaction, WalkStats) {
	cumWeights := d.CumulativeWeights()
	cur := walkStart(d, rng, w.DepthMin, w.DepthMax)
	var stats WalkStats
	for {
		children := d.Children(cur.ID)
		if len(children) == 0 {
			return cur, stats
		}
		stats.Steps++
		ws := make([]float64, len(children))
		maxW := 0
		for _, id := range children {
			if cw := cumWeights[id]; cw > maxW {
				maxW = cw
			}
		}
		for i, id := range children {
			ws[i] = math.Exp(w.Alpha * float64(cumWeights[id]-maxW))
		}
		next := children[rng.WeightedChoice(ws)]
		cur = d.MustGet(next)
	}
}

// URTS is uniform random tip selection: it ignores the DAG interior and
// picks a tip uniformly at random — the "random tip selector" used as a
// poisoning baseline (§5.3.4) and for attack cross-checking.
type URTS struct{}

var _ Selector = URTS{}

// Name implements Selector.
func (URTS) Name() string { return "urts" }

// SelectTip implements Selector.
func (URTS) SelectTip(d Graph, _ Evaluator, rng *xrand.RNG) (*dag.Transaction, WalkStats) {
	tips := d.Tips()
	return d.MustGet(tips[rng.Intn(len(tips))]), WalkStats{}
}

// UniformWalk is an unbiased random walk (every child equally likely). It is
// the α→0 limit of both biased walks and is used in ablations.
type UniformWalk struct {
	DepthMin int
	DepthMax int
}

var _ Selector = UniformWalk{}

// Name implements Selector.
func (UniformWalk) Name() string { return "uniform-walk" }

// SelectTip implements Selector.
func (w UniformWalk) SelectTip(d Graph, _ Evaluator, rng *xrand.RNG) (*dag.Transaction, WalkStats) {
	cur := walkStart(d, rng, w.DepthMin, w.DepthMax)
	var stats WalkStats
	for {
		children := d.Children(cur.ID)
		if len(children) == 0 {
			return cur, stats
		}
		stats.Steps++
		cur = d.MustGet(children[rng.Intn(len(children))])
	}
}

// walkStart returns the walk entry transaction: sampled at the configured
// depth band, or genesis when the band is unset.
func walkStart(d Graph, rng *xrand.RNG, depthMin, depthMax int) *dag.Transaction {
	if depthMax > 0 {
		return d.SampleAtDepth(rng, depthMin, depthMax)
	}
	return d.Genesis()
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
