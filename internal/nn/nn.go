// Package nn is a minimal, dependency-free neural-network library: dense
// feed-forward networks with ReLU activations and a softmax cross-entropy
// head, trained by mini-batch SGD.
//
// It substitutes for the TensorFlow models of the original paper (CNNs for
// the image tasks, an LSTM for next-character prediction). The DAG mechanism
// under study only requires that models (a) expose their parameters as a flat
// vector that can be averaged and (b) exhibit per-cluster loss landscapes on
// non-IID data; both hold for the MLPs built here.
//
// Training and evaluation are batched: sample sets are mathx.Matrix values
// (contiguous row-major storage), whole minibatches flow through the blocked
// kernels of internal/mathx, and all working memory lives in scratch buffers
// the model reuses across calls — steady-state training performs zero
// allocations per batch.
//
// # Float-determinism contract
//
// The batched paths are bit-identical to the per-sample loops they replaced
// (retained in reference.go and pinned by the differential tests): every
// accumulator consumes its contributions in the documented per-sample order,
// so accuracies, losses and trained parameters are byte-for-byte unchanged
// across the batching boundary — the invariant the engines' worker-count
// guarantee and the CI metric gate build on. Treat any reordering of these
// loops as a numerics change.
//
// Models are deliberately not safe for concurrent mutation; the simulator
// clones models per client before training.
package nn

import (
	"fmt"
	"math"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// Arch describes a feed-forward architecture: In inputs, the given Hidden
// layer widths (possibly empty, yielding softmax regression), and Out
// classes.
type Arch struct {
	In     int
	Hidden []int
	Out    int
}

// Validate reports whether the architecture is well-formed.
func (a Arch) Validate() error {
	if a.In <= 0 {
		return fmt.Errorf("nn: architecture needs In > 0, got %d", a.In)
	}
	if a.Out <= 0 {
		return fmt.Errorf("nn: architecture needs Out > 0, got %d", a.Out)
	}
	for i, h := range a.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: hidden layer %d has non-positive width %d", i, h)
		}
	}
	return nil
}

// NumParams returns the total number of trainable parameters.
func (a Arch) NumParams() int {
	n := 0
	for _, l := range a.ParamsPerLayer() {
		n += l
	}
	return n
}

// NumLayers returns the number of dense layers (hidden layers plus the
// output layer).
func (a Arch) NumLayers() int { return len(a.Hidden) + 1 }

// ParamsPerLayer returns the parameter count of each dense layer (weights
// plus biases), in order from input to output.
func (a Arch) ParamsPerLayer() []int {
	out := make([]int, 0, a.NumLayers())
	prev := a.In
	for _, h := range a.Hidden {
		out = append(out, prev*h+h)
		prev = h
	}
	return append(out, prev*a.Out+a.Out)
}

// PrefixParams returns the number of parameters in the first k layers.
// It clamps k into [0, NumLayers()]. Used for partial-layer sharing, where
// only an early slice of the network is averaged across clients.
func (a Arch) PrefixParams(k int) int {
	per := a.ParamsPerLayer()
	if k > len(per) {
		k = len(per)
	}
	n := 0
	for i := 0; i < k; i++ {
		n += per[i]
	}
	return n
}

// layer is one dense layer; W is row-major [out][in], b has length out.
// Both are sub-slices of the owning network's flat parameter vector.
type layer struct {
	in, out int
	w, b    []float64
}

// batchScratch is the reusable working memory of the batched forward and
// backward passes. Buffers are grown to the largest row count seen and then
// reused — the zero-allocations-per-batch property BenchmarkTrainEpoch
// verifies. Scratch is never cloned and never part of a model's value.
type batchScratch struct {
	actRows   int            // row capacity of acts
	trainRows int            // row capacity of deltas/in/ys
	in        mathx.Matrix   // gathered minibatch inputs
	ys        []int          // gathered minibatch labels
	acts      []mathx.Matrix // post-activation per layer
	deltas    []mathx.Matrix // error terms per layer
}

// MLP is a feed-forward network with ReLU hidden activations and a softmax
// output. The zero value is not usable; construct with New.
type MLP struct {
	arch   Arch
	params []float64 // single flat backing store; layers view into it
	layers []layer

	// scratch buffers reused across per-sample Forward calls (Predict and
	// the retained reference path in reference.go).
	acts   [][]float64 // post-activation per layer (len = len(layers)+1); acts[0] aliases the input
	deltas [][]float64 // error terms per layer

	// bs is the batched-path scratch (forward/backward over whole
	// minibatches); grads/order persist across Train calls so steady-state
	// training allocates nothing.
	bs    batchScratch
	grads []float64
	order []int
}

// New constructs an MLP with Glorot-uniform initial weights drawn from rng.
// It panics on an invalid architecture (programmer error).
func New(arch Arch, rng *xrand.RNG) *MLP {
	if err := arch.Validate(); err != nil {
		panic(err)
	}
	m := &MLP{arch: arch}
	m.params = make([]float64, arch.NumParams())
	m.bindLayers()
	m.init(rng)
	return m
}

// bindLayers slices the flat parameter vector into per-layer views and
// allocates the per-sample scratch buffers.
func (m *MLP) bindLayers() {
	dims := make([]int, 0, len(m.arch.Hidden)+2)
	dims = append(dims, m.arch.In)
	dims = append(dims, m.arch.Hidden...)
	dims = append(dims, m.arch.Out)

	m.layers = m.layers[:0]
	off := 0
	for i := 0; i+1 < len(dims); i++ {
		in, out := dims[i], dims[i+1]
		w := m.params[off : off+in*out]
		off += in * out
		b := m.params[off : off+out]
		off += out
		m.layers = append(m.layers, layer{in: in, out: out, w: w, b: b})
	}

	m.acts = make([][]float64, len(m.layers)+1)
	m.deltas = make([][]float64, len(m.layers))
	for i, l := range m.layers {
		m.acts[i+1] = make([]float64, l.out)
		m.deltas[i] = make([]float64, l.out)
	}
}

// growActs sizes the batched activation scratch for rows samples.
func (m *MLP) growActs(rows int) {
	bs := &m.bs
	if bs.acts == nil {
		bs.acts = make([]mathx.Matrix, len(m.layers))
	}
	if bs.actRows >= rows {
		return
	}
	for i, l := range m.layers {
		bs.acts[i] = bs.acts[i].Grow(rows, l.out)
	}
	bs.actRows = rows
}

// growTrain sizes the gather buffer, gathered labels and delta scratch for
// minibatches of rows samples.
func (m *MLP) growTrain(rows int) {
	bs := &m.bs
	if bs.deltas == nil {
		bs.deltas = make([]mathx.Matrix, len(m.layers))
	}
	if bs.trainRows >= rows {
		return
	}
	for i, l := range m.layers {
		bs.deltas[i] = bs.deltas[i].Grow(rows, l.out)
	}
	bs.in = bs.in.Grow(rows, m.arch.In)
	if cap(bs.ys) < rows {
		bs.ys = make([]int, rows)
	}
	bs.trainRows = rows
}

// init applies Glorot-uniform initialization to weights; biases start at 0.
func (m *MLP) init(rng *xrand.RNG) {
	for _, l := range m.layers {
		limit := math.Sqrt(6.0 / float64(l.in+l.out))
		for i := range l.w {
			l.w[i] = (rng.Float64()*2 - 1) * limit
		}
		mathx.Fill(l.b, 0)
	}
}

// Arch returns the architecture of the network.
func (m *MLP) Arch() Arch { return m.arch }

// NumParams returns the length of the flat parameter vector.
func (m *MLP) NumParams() int { return len(m.params) }

// Params returns the live flat parameter vector. Callers must copy it before
// storing it (use ParamsCopy), since training mutates it in place.
func (m *MLP) Params() []float64 { return m.params }

// ParamsCopy returns a fresh copy of the flat parameter vector.
func (m *MLP) ParamsCopy() []float64 { return mathx.CloneVec(m.params) }

// SetParams copies p into the network. It panics if the length does not
// match the architecture.
func (m *MLP) SetParams(p []float64) {
	if len(p) != len(m.params) {
		panic(fmt.Sprintf("nn: SetParams length %d, want %d", len(p), len(m.params)))
	}
	copy(m.params, p)
}

// Clone returns a deep copy sharing nothing with the receiver. Scratch
// buffers are not copied; the clone grows its own on first use.
func (m *MLP) Clone() *MLP {
	c := &MLP{arch: m.arch}
	c.params = mathx.CloneVec(m.params)
	c.bindLayers()
	return c
}

// Forward computes class probabilities for input x into the returned slice.
// The returned slice is scratch owned by the model: it is valid until the
// next Forward/Train call. x must have length Arch().In.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.arch.In {
		panic(fmt.Sprintf("nn: Forward input length %d, want %d", len(x), m.arch.In))
	}
	m.acts[0] = x
	for li, l := range m.layers {
		in := m.acts[li]
		out := m.acts[li+1]
		last := li == len(m.layers)-1
		for o := 0; o < l.out; o++ {
			row := l.w[o*l.in : (o+1)*l.in]
			v := l.b[o] + mathx.Dot(row, in)
			if !last && v < 0 {
				v = 0 // ReLU
			}
			out[o] = v
		}
		if last {
			mathx.SoftmaxInPlace(out)
		}
	}
	return m.acts[len(m.layers)]
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x []float64) int {
	return mathx.ArgMax(m.Forward(x))
}

// logitsBatch runs the network over every row of x through the batched
// kernels up to the output layer's pre-activations, returning the logit
// matrix (a view of model scratch, valid until the next batched call).
// mathx.SoftmaxRows on it yields the probabilities, bit-identical per row to
// Forward.
func (m *MLP) logitsBatch(x mathx.Matrix) mathx.Matrix {
	if x.Cols != m.arch.In {
		panic(fmt.Sprintf("nn: Forward input length %d, want %d", x.Cols, m.arch.In))
	}
	m.growActs(x.Rows)
	in := x
	last := len(m.layers) - 1
	for li := range m.layers {
		l := &m.layers[li]
		out := m.bs.acts[li].Top(x.Rows)
		if li == last {
			mathx.AffineRows(in, l.w, l.b, out)
		} else {
			mathx.AffineRowsReLU(in, l.w, l.b, out)
		}
		in = out
	}
	return in
}

// lossEps floors probabilities inside log() to keep losses finite.
const lossEps = 1e-12

// score is the shared body of Evaluate and Accuracy: one batched forward
// pass, then a per-row reduction in ascending sample order (bit-identical
// to the per-sample reference loop). The softmax and the loss term are
// computed only when withLoss is set — the walk engines' selection weights
// never consume losses, so their scorers stop at the logits and let
// mathx.ArgMaxSoftmax name the class the softmax would have (it runs the
// softmax itself on the rare row the logits do not decide); accuracy is
// identical either way. name labels panics with the public entry point.
func (m *MLP) score(name string, x mathx.Matrix, ys []int, withLoss bool) (loss, acc float64) {
	if x.Rows != len(ys) {
		panic("nn: " + name + " xs/ys length mismatch")
	}
	if len(ys) == 0 {
		return 0, 0
	}
	out := m.logitsBatch(x)
	if withLoss {
		mathx.SoftmaxRows(out)
	}
	correct := 0
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		y := ys[r]
		if y < 0 || y >= len(row) {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, len(row)))
		}
		var pred int
		if withLoss {
			loss += -math.Log(math.Max(row[y], lossEps))
			pred = mathx.ArgMax(row)
		} else {
			pred = mathx.ArgMaxSoftmax(row)
		}
		if pred == y {
			correct++
		}
	}
	n := float64(len(ys))
	return loss / n, float64(correct) / n
}

// Evaluate returns the mean cross-entropy loss and accuracy of the model on
// the given samples (one row of x per label). An empty input yields (0, 0).
func (m *MLP) Evaluate(x mathx.Matrix, ys []int) (loss, acc float64) {
	return m.score("Evaluate", x, ys, true)
}

// AccuracyParams is the accuracy-only EvaluateParams: zero-copy parameter
// aliasing, loss reduction skipped, result bit-identical to EvaluateParams'
// accuracy.
func (m *MLP) AccuracyParams(p []float64, x mathx.Matrix, ys []int) float64 {
	if len(p) != len(m.params) {
		panic(fmt.Sprintf("nn: AccuracyParams length %d, want %d", len(p), len(m.params)))
	}
	saved := m.params
	defer m.alias(saved)
	m.alias(p)
	_, acc := m.score("AccuracyParams", x, ys, false)
	return acc
}

// AccuracyManyInto is the batched evaluation path of the walk engine: it
// scores every parameter vector on one (x, ys) set, reusing the receiver's
// scratch buffers across the whole batch and aliasing each vector in turn (no
// per-vector parameter copies), appending to dst (which may be nil) and
// returning it — the walk engines reuse one buffer across steps. Each
// appended value is bit-identical to AccuracyParams of that vector; the
// model's own weights are untouched.
func (m *MLP) AccuracyManyInto(dst []float64, paramsList [][]float64, x mathx.Matrix, ys []int) []float64 {
	saved := m.params
	defer m.alias(saved)
	for i, p := range paramsList {
		if len(p) != len(saved) {
			panic(fmt.Sprintf("nn: AccuracyManyInto params[%d] length %d, want %d", i, len(p), len(saved)))
		}
		m.alias(p)
		_, acc := m.score("AccuracyManyInto", x, ys, false)
		dst = append(dst, acc)
	}
	return dst
}

// alias re-points the model's parameter storage and per-layer views at p
// without copying. The caller must restore the original storage before the
// model is used as a value holder again.
func (m *MLP) alias(p []float64) {
	m.params = p
	off := 0
	for i := range m.layers {
		l := &m.layers[i]
		l.w = p[off : off+l.in*l.out]
		off += l.in * l.out
		l.b = p[off : off+l.out]
		off += l.out
	}
}

// EvaluateParams scores an arbitrary flat parameter vector on the given
// samples, using the receiver only for its scratch buffers: the layers
// temporarily alias p — no O(P) copy, unlike SetParams — and the model's own
// weights are untouched afterwards. p must stay unmodified for the duration
// of the call (the DAG's published transaction parameters are immutable, so
// the tip-selection hot path satisfies this for free). Results are
// bit-identical to SetParams(p) followed by Evaluate.
func (m *MLP) EvaluateParams(p []float64, x mathx.Matrix, ys []int) (loss, acc float64) {
	if len(p) != len(m.params) {
		panic(fmt.Sprintf("nn: EvaluateParams length %d, want %d", len(p), len(m.params)))
	}
	saved := m.params
	defer m.alias(saved)
	m.alias(p)
	return m.Evaluate(x, ys)
}

// SGDConfig controls local training.
type SGDConfig struct {
	// LR is the learning rate.
	LR float64
	// Epochs is the number of passes over the local data. If MaxBatches > 0
	// the pass is truncated to that many batches per epoch, matching the
	// paper's fixed "local batches" hyperparameter (Table 1).
	Epochs int
	// BatchSize is the mini-batch size (Table 1: 10).
	BatchSize int
	// MaxBatches caps the number of batches per epoch; 0 means no cap.
	MaxBatches int
	// ProxMu, when positive, adds the FedProx proximal term
	// (mu/2)*||w - w0||^2 to the objective, where w0 = ProxCenter.
	ProxMu float64
	// ProxCenter is the global model the proximal term anchors to. Required
	// when ProxMu > 0.
	ProxCenter []float64
	// Shuffle, when true, visits samples in a random order each epoch using
	// the provided RNG.
	Shuffle bool
}

// Train runs mini-batch SGD on (x, ys) according to cfg. rng is used only
// for shuffling and may be nil when cfg.Shuffle is false. It returns the
// number of batches processed.
//
// Each minibatch is gathered from the contiguous sample matrix into reusable
// scratch and runs through the batched forward/backward kernels; gradients
// and the visit order also persist on the model, so steady-state training
// performs zero allocations per batch. Updates are
// bit-identical to the retained per-sample reference (reference.go).
func (m *MLP) Train(x mathx.Matrix, ys []int, cfg SGDConfig, rng *xrand.RNG) int {
	if x.Rows != len(ys) {
		panic("nn: Train xs/ys length mismatch")
	}
	if len(ys) == 0 || cfg.Epochs <= 0 {
		return 0
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 10
	}
	if cfg.ProxMu > 0 && len(cfg.ProxCenter) != len(m.params) {
		panic("nn: ProxMu set without a matching ProxCenter")
	}

	n := x.Rows
	if m.grads == nil {
		m.grads = make([]float64, len(m.params))
	}
	grads := m.grads
	if cap(m.order) < n {
		m.order = make([]int, n)
	}
	order := m.order[:n]
	for i := range order {
		order[i] = i
	}
	maxBatch := cfg.BatchSize
	if maxBatch > n {
		maxBatch = n
	}
	m.growTrain(maxBatch)

	batches := 0
	for e := 0; e < cfg.Epochs; e++ {
		if cfg.Shuffle && rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		inEpoch := 0
		for start := 0; start < n; start += cfg.BatchSize {
			if cfg.MaxBatches > 0 && inEpoch >= cfg.MaxBatches {
				break
			}
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			rows := end - start
			batch := m.bs.in.Top(rows)
			mathx.GatherRows(batch, x, order[start:end])
			bys := m.bs.ys[:rows]
			for k, idx := range order[start:end] {
				bys[k] = ys[idx]
			}

			clear(grads)
			m.backwardBatch(batch, bys, grads)

			invBatch := 1 / float64(rows)
			mathx.Axpy(-cfg.LR*invBatch, grads, m.params)
			if cfg.ProxMu > 0 {
				// w -= lr * mu * (w - w0)
				k := cfg.LR * cfg.ProxMu
				for i := range m.params {
					m.params[i] -= k * (m.params[i] - cfg.ProxCenter[i])
				}
			}
			batches++
			inEpoch++
		}
	}
	return batches
}

// backwardBatch accumulates the cross-entropy gradient of a whole gathered
// minibatch into grads (laid out identically to the flat parameter vector).
// Per destination element the contributions arrive in ascending sample
// order with exact-zero deltas skipped — the accumulation order of the
// per-sample backward, so the summed gradient is bit-identical to it.
func (m *MLP) backwardBatch(x mathx.Matrix, ys []int, grads []float64) {
	probs := m.logitsBatch(x)
	mathx.SoftmaxRows(probs)
	for _, y := range ys {
		if y < 0 || y >= probs.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, probs.Cols))
		}
	}
	rows := x.Rows
	last := len(m.layers) - 1
	mathx.SoftmaxCEDelta(probs, ys, m.bs.deltas[last].Top(rows))

	off := len(grads)
	for li := last; li >= 0; li-- {
		l := m.layers[li]
		act := x
		if li > 0 {
			act = m.bs.acts[li-1].Top(rows)
		}
		off -= l.out // bias block
		bg := grads[off : off+l.out]
		off -= l.in * l.out // weight block
		wg := grads[off : off+l.in*l.out]
		mathx.AccumGrads(m.bs.deltas[li].Top(rows), act, wg, bg)
		if li > 0 {
			mathx.BackpropReLUDelta(m.bs.deltas[li].Top(rows), l.w, m.bs.acts[li-1].Top(rows), m.bs.deltas[li-1].Top(rows))
		}
	}
}

// AverageParams returns the element-wise mean of the given parameter
// vectors. It panics if vecs is empty or lengths differ. This is the model
// averaging step of both FedAvg and the specializing DAG.
func AverageParams(vecs ...[]float64) []float64 {
	return mathx.MeanVecs(vecs...)
}

// WeightedAverageParams returns sum(w_i * v_i) / sum(w_i), the
// sample-count-weighted FedAvg aggregate. It panics if inputs are empty,
// lengths differ, or all weights are zero.
func WeightedAverageParams(vecs [][]float64, weights []float64) []float64 {
	if len(vecs) == 0 || len(vecs) != len(weights) {
		panic("nn: WeightedAverageParams needs matching non-empty vecs and weights")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("nn: WeightedAverageParams with non-positive total weight")
	}
	out := make([]float64, len(vecs[0]))
	for i, v := range vecs {
		if len(v) != len(out) {
			panic("nn: WeightedAverageParams length mismatch")
		}
		mathx.Axpy(weights[i]/total, v, out)
	}
	return out
}
