package nn

import (
	"fmt"
	"math"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// This file retains the per-sample training and evaluation loops the batched
// kernels replaced. They are the executable specification of the
// float-determinism contract: the differential tests (nn_diff_test.go) pin
// Train/Evaluate and the accuracy-only scorers bit-identical to these
// references across architectures, batch sizes and every SGD option. Production code never
// calls them — change them only together with the batched paths, and only
// for a deliberate, gate-refreshing numerics change.

// backward accumulates the gradient of the cross-entropy loss for one sample
// into grads (laid out identically to the flat parameter vector). It is the
// per-sample reference the batched backwardBatch must match bit for bit, and
// the subject of the finite-difference gradient check.
func (m *MLP) backward(x []float64, y int, grads []float64) {
	probs := m.Forward(x) // fills m.acts
	if y < 0 || y >= len(probs) {
		panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, len(probs)))
	}

	// Output delta for softmax + cross-entropy: p - onehot(y).
	last := len(m.layers) - 1
	outDelta := m.deltas[last]
	copy(outDelta, probs)
	outDelta[y] -= 1

	// Walk layers backwards, accumulating weight/bias gradients and
	// propagating deltas through the ReLUs.
	off := len(grads)
	for li := last; li >= 0; li-- {
		l := m.layers[li]
		in := m.acts[li]
		delta := m.deltas[li]

		off -= l.out // bias block
		bg := grads[off : off+l.out]
		off -= l.in * l.out // weight block
		wg := grads[off : off+l.in*l.out]

		for o := 0; o < l.out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			bg[o] += d
			row := wg[o*l.in : (o+1)*l.in]
			mathx.Axpy(d, in, row)
		}

		if li > 0 {
			prev := m.deltas[li-1]
			mathx.Fill(prev, 0)
			for o := 0; o < l.out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := l.w[o*l.in : (o+1)*l.in]
				mathx.Axpy(d, row, prev)
			}
			// ReLU derivative: zero where the forward activation was <= 0.
			act := m.acts[li]
			for i := range prev {
				if act[i] <= 0 {
					prev[i] = 0
				}
			}
		}
	}
}

// evaluateReference is the per-sample evaluation loop: one Forward call per
// sample, loss accumulated in sample order.
func (m *MLP) evaluateReference(x mathx.Matrix, ys []int) (loss, acc float64) {
	if x.Rows != len(ys) {
		panic("nn: Evaluate xs/ys length mismatch")
	}
	if len(ys) == 0 {
		return 0, 0
	}
	correct := 0
	for i := 0; i < x.Rows; i++ {
		probs := m.Forward(x.Row(i))
		y := ys[i]
		if y < 0 || y >= len(probs) {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, len(probs)))
		}
		loss += -math.Log(math.Max(probs[y], lossEps))
		if mathx.ArgMax(probs) == y {
			correct++
		}
	}
	n := float64(len(ys))
	return loss / n, float64(correct) / n
}

// trainReference is the per-sample SGD loop: every minibatch accumulates
// gradients one backward call at a time. It consumes rng identically to
// Train (one Shuffle per epoch), so running both from equal starting points
// must produce bit-identical parameters.
func (m *MLP) trainReference(x mathx.Matrix, ys []int, cfg SGDConfig, rng *xrand.RNG) int {
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

	grads := make([]float64, len(m.params))
	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}

	batches := 0
	for e := 0; e < cfg.Epochs; e++ {
		if cfg.Shuffle && rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		inEpoch := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			if cfg.MaxBatches > 0 && inEpoch >= cfg.MaxBatches {
				break
			}
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			mathx.Fill(grads, 0)
			for _, idx := range order[start:end] {
				m.backward(x.Row(idx), ys[idx], grads)
			}
			invBatch := 1 / float64(end-start)
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
