package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// Differential suite: the batched Train/Evaluate/AccuracyManyInto paths must be
// bit-identical to the retained per-sample reference (reference.go) across
// architectures, batch sizes and every SGD option. This is the executable
// form of the float-determinism contract — a failure here means the batched
// kernels changed numerics, which would break the CI metric gate.

// diffArchs covers the architecture space the simulator uses: softmax
// regression (no hidden layer), one hidden layer, deep and skinny.
var diffArchs = []Arch{
	{In: 7, Out: 4},                      // no-hidden-layer softmax regression
	{In: 9, Hidden: []int{12}, Out: 5},   // the simulator's shape
	{In: 5, Hidden: []int{8, 6}, Out: 3}, // two hidden layers
	{In: 3, Hidden: []int{1, 1}, Out: 2}, // degenerate widths
	{In: 16, Hidden: []int{32}, Out: 10}, // wider than the batch
}

func sameParams(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: param %d differs bitwise: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestEvaluateMatchesReference: batched evaluation equals the per-sample
// loop bit for bit, for every arch and sample count (including n=1 and a
// set larger than any internal blocking factor).
func TestEvaluateMatchesReference(t *testing.T) {
	eachBackend(t, func() {
		for ai, arch := range diffArchs {
			for _, n := range []int{1, 2, 3, 4, 5, 17, 64} {
				rng := xrand.New(int64(100*ai + n))
				m := New(arch, rng)
				x, ys := randomSamples(rng, n, arch.In, arch.Out)
				gotLoss, gotAcc := m.Evaluate(x, ys)
				wantLoss, wantAcc := m.evaluateReference(x, ys)
				if gotLoss != wantLoss || gotAcc != wantAcc {
					t.Fatalf("arch %d n=%d: batched (%v, %v) vs reference (%v, %v)",
						ai, n, gotLoss, gotAcc, wantLoss, wantAcc)
				}
			}
		}
	})
}

// TestTrainMatchesReference sweeps batch sizes (1, smaller than n, exactly
// n, larger than n), MaxBatches, shuffle and the proximal option, alone and
// together, checking bit-identical parameters and batch counts.
func TestTrainMatchesReference(t *testing.T) {
	eachBackend(t, func() {
		const n = 23
		configs := []SGDConfig{
			{LR: 0.1, Epochs: 2, BatchSize: 1},
			{LR: 0.1, Epochs: 2, BatchSize: 4},
			{LR: 0.1, Epochs: 1, BatchSize: 10},
			{LR: 0.1, Epochs: 2, BatchSize: n},     // one full-set batch
			{LR: 0.1, Epochs: 2, BatchSize: n + 9}, // batch larger than the data
			{LR: 0.1, Epochs: 3, BatchSize: 4, MaxBatches: 2},
			{LR: 0.1, Epochs: 2, BatchSize: 5, Shuffle: true},
			{LR: 0.05, Epochs: 3, BatchSize: 4, MaxBatches: 3, Shuffle: true},
			{LR: 0.1, Epochs: 2, BatchSize: 10, ProxMu: 0.5, MaxBatches: 2},
			{LR: 0.1, Epochs: 2, BatchSize: 4, ProxMu: 1.5},
			{LR: 0.05, Epochs: 2, BatchSize: 7, ProxMu: 0.5, Shuffle: true},
		}
		for ai, arch := range diffArchs {
			for ci, cfg := range configs {
				t.Run(fmt.Sprintf("arch%d/cfg%d", ai, ci), func(t *testing.T) {
					rng := xrand.New(int64(1000*ai + ci))
					base := New(arch, rng)
					x, ys := randomSamples(rng, n, arch.In, arch.Out)
					if cfg.ProxMu > 0 {
						cfg.ProxCenter = base.ParamsCopy()
					}

					batched := base.Clone()
					gotBatches := batched.Train(x, ys, cfg, xrand.New(int64(ci)))

					ref := base.Clone()
					wantBatches := ref.trainReference(x, ys, cfg, xrand.New(int64(ci)))

					if gotBatches != wantBatches {
						t.Fatalf("batch counts diverge: %d vs %d", gotBatches, wantBatches)
					}
					sameParams(t, "trained params", batched.Params(), ref.Params())

					// Re-running Train on the same (warm-scratch) model must
					// still match a fresh reference — scratch reuse leaks no
					// state between calls.
					gotBatches = batched.Train(x, ys, cfg, xrand.New(int64(ci)+7))
					wantBatches = ref.trainReference(x, ys, cfg, xrand.New(int64(ci)+7))
					if gotBatches != wantBatches {
						t.Fatalf("second-call batch counts diverge: %d vs %d", gotBatches, wantBatches)
					}
					sameParams(t, "second-call params", batched.Params(), ref.Params())
				})
			}
		}
	})
}

// TestBatchedGradientMatchesPerSample compares one raw backward pass: the
// gradient a gathered minibatch accumulates must equal the sum of per-sample
// backward calls bit for bit (softmax regression included).
func TestBatchedGradientMatchesPerSample(t *testing.T) {
	eachBackend(t, func() {
		for ai, arch := range diffArchs {
			rng := xrand.New(int64(ai) + 500)
			m := New(arch, rng)
			x, ys := randomSamples(rng, 11, arch.In, arch.Out)

			batched := make([]float64, m.NumParams())
			m.growTrain(x.Rows)
			gather := m.bs.in.Top(x.Rows)
			idx := make([]int, x.Rows)
			for i := range idx {
				idx[i] = i
			}
			mathx.GatherRows(gather, x, idx)
			m.backwardBatch(gather, ys, batched)

			want := make([]float64, m.NumParams())
			for i := 0; i < x.Rows; i++ {
				m.backward(x.Row(i), ys[i], want)
			}
			sameParams(t, fmt.Sprintf("arch %d gradient", ai), batched, want)
		}
	})
}

// TestTrainZeroAllocSteadyState asserts the scratch-reuse contract directly:
// after a warm-up call, Train must not allocate.
func TestTrainZeroAllocSteadyState(t *testing.T) {
	eachBackend(t, func() {
		rng := xrand.New(21)
		arch := Arch{In: 12, Hidden: []int{16}, Out: 5}
		m := New(arch, rng)
		x, ys := randomSamples(rng, 40, arch.In, arch.Out)
		cfg := SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, Shuffle: true}
		trainRNG := xrand.New(3)
		m.Train(x, ys, cfg, trainRNG) // warm up scratch

		allocs := testing.AllocsPerRun(10, func() {
			m.Train(x, ys, cfg, trainRNG)
		})
		if allocs != 0 {
			t.Fatalf("steady-state Train allocates %v times per call, want 0", allocs)
		}
	})
}

// TestAccuracyMatchesEvaluate: the accuracy-only scorers stop at the logits
// and let mathx.ArgMaxSoftmax name the class, so on every row their verdict
// must be the one Evaluate reads off the probabilities — also where the two
// could part: output layers doctored to emit exact ties, leads the
// exponential rounds away, leads inside ArgMaxSoftmax's margin, and
// non-finite logits (from non-finite parameters, and from finite ones that
// overflow). Accuracies are compared bitwise, against the per-sample
// reference too.
func TestAccuracyMatchesEvaluate(t *testing.T) {
	eachBackend(t, func() {
		inf, nan := math.Inf(1), math.NaN()
		// Each doctor rewrites the output layer: w is [out][in] row-major, b the
		// biases. Row 1 duplicating row 0 makes classes 0 and 1 tie on every
		// sample; the bias then sets the lead.
		dupRow := func(w []float64, in int) { copy(w[in:2*in], w[:in]) }
		doctors := []struct {
			name string
			fix  func(w, b []float64, in int)
		}{
			{"random", func(w, b []float64, in int) {}},
			{"exact tie", func(w, b []float64, in int) { dupRow(w, in); b[1] = b[0] }},
			{"one-ulp lead", func(w, b []float64, in int) { dupRow(w, in); b[0] = 1; b[1] = math.Nextafter(1, 2) }},
			{"one-ulp deficit", func(w, b []float64, in int) { dupRow(w, in); b[0] = 1; b[1] = math.Nextafter(1, 0) }},
			{"lead the exponential rounds to a tie", func(w, b []float64, in int) { mathx.Fill(w, 0); mathx.Fill(b, 0); b[len(b)-1] = 1e-17 }},
			{"lead inside the margin", func(w, b []float64, in int) { dupRow(w, in); b[0] = 0; b[1] = 5e-10 }},
			{"lead just over the margin", func(w, b []float64, in int) { dupRow(w, in); b[0] = 0; b[1] = 2e-9 }},
			{"all classes equal", func(w, b []float64, in int) { mathx.Fill(w, 0); mathx.Fill(b, 0.5) }},
			{"+Inf bias", func(w, b []float64, in int) { b[len(b)-1] = inf }},
			{"two +Inf biases", func(w, b []float64, in int) { b[0], b[len(b)-1] = inf, inf }},
			{"-Inf bias", func(w, b []float64, in int) { b[0] = -inf }},
			{"all -Inf biases", func(w, b []float64, in int) { mathx.Fill(b, -inf) }},
			{"NaN bias first", func(w, b []float64, in int) { b[0] = nan }},
			{"NaN bias last", func(w, b []float64, in int) { b[len(b)-1] = nan }},
			{"overflowing weights", func(w, b []float64, in int) {
				for i := range w {
					w[i] *= 1e308 // finite parameters, ±Inf and NaN logits
				}
			}},
		}
		for ai, arch := range diffArchs {
			for di, doc := range doctors {
				rng := xrand.New(int64(300*ai + di))
				m := New(arch, rng)
				out := m.layers[len(m.layers)-1]
				doc.fix(out.w, out.b, out.in)
				x, ys := randomSamples(rng, 33, arch.In, arch.Out)
				label := fmt.Sprintf("arch %d, %s", ai, doc.name)

				_, want := m.Evaluate(x, ys)
				if _, ref := m.evaluateReference(x, ys); ref != want {
					t.Fatalf("%s: Evaluate accuracy %v, per-sample reference %v", label, want, ref)
				}
				if got := m.AccuracyParams(m.Params(), x, ys); got != want {
					t.Fatalf("%s: AccuracyParams of the model's own vector %v, Evaluate %v", label, got, want)
				}
				scratch := New(arch, rng.Split("scratch"))
				if got := scratch.AccuracyParams(m.Params(), x, ys); got != want {
					t.Fatalf("%s: AccuracyParams %v, Evaluate %v", label, got, want)
				}
				_, own := scratch.Evaluate(x, ys)
				got := scratch.AccuracyManyInto(nil, [][]float64{m.Params(), scratch.Params(), m.Params()}, x, ys)
				if len(got) != 3 || got[0] != want || got[1] != own || got[2] != want {
					t.Fatalf("%s: AccuracyManyInto %v, Evaluate %v / %v / %v", label, got, want, own, want)
				}
			}
		}
	})
}
