package nn

import (
	"testing"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

// Micro-benchmarks of the training/evaluation hot path, plain `go test
// -bench` with no CI job behind them. benchArch and the sample counts mirror the simulator
// defaults (64-dim inputs, one 32-wide hidden layer, 10 classes, batch 10).
var benchArch = Arch{In: 64, Hidden: []int{32}, Out: 10}

func benchData(n int) (mathx.Matrix, []int) {
	rng := xrand.New(1)
	x := mathx.NewMatrix(n, benchArch.In)
	ys := make([]int, n)
	for i := 0; i < n; i++ {
		copy(x.Row(i), rng.NormalVec(benchArch.In, 0, 1))
		ys[i] = i % benchArch.Out
	}
	return x, ys
}

func BenchmarkForward(b *testing.B) {
	rng := xrand.New(1)
	m := New(benchArch, rng)
	x := rng.NormalVec(benchArch.In, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkTrainEpoch measures one full shuffled epoch over a 100-sample
// client split — the per-round unit of work of every engine. The steady
// state must report 0 allocs/op (the scratch-reuse acceptance criterion).
func BenchmarkTrainEpoch(b *testing.B) {
	rng := xrand.New(1)
	m := New(benchArch, rng)
	x, ys := benchData(100)
	cfg := SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10, Shuffle: true}
	trainRNG := xrand.New(2)
	m.Train(x, ys, cfg, trainRNG) // warm up scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train(x, ys, cfg, trainRNG)
	}
}

// BenchmarkEvaluateBatch measures one whole-test-split evaluation (20
// samples, the Table 1 split) — the unit the tip-selection walks pay per
// cache miss.
func BenchmarkEvaluateBatch(b *testing.B) {
	rng := xrand.New(1)
	m := New(benchArch, rng)
	x, ys := benchData(20)
	m.Evaluate(x, ys) // warm up scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(x, ys)
	}
}

// BenchmarkBackward measures one gathered 10-sample minibatch
// forward+backward, the inner loop of Train.
func BenchmarkBackward(b *testing.B) {
	rng := xrand.New(1)
	m := New(benchArch, rng)
	x, ys := benchData(10)
	grads := make([]float64, m.NumParams())
	m.growTrain(x.Rows)
	batch := m.bs.in.Top(x.Rows)
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	mathx.GatherRows(batch, x, idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mathx.Fill(grads, 0)
		m.backwardBatch(batch, ys, grads)
	}
}

// BenchmarkAccuracyManyInto measures what one tip-selection walk step pays on
// a cold cache: eight candidate models scored for accuracy on one client's
// test split, at the long-haul shape (226 parameters, 10 rows) and the FMNIST
// shape (2 410 parameters, 20 rows). ns/op is per model.
func BenchmarkAccuracyManyInto(b *testing.B) {
	for _, s := range []struct {
		name string
		arch Arch
		rows int
	}{
		{"longhaul", Arch{In: 16, Hidden: []int{8}, Out: 10}, 10},
		{"fmnist", Arch{In: 64, Hidden: []int{32}, Out: 10}, 20},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := xrand.New(1)
			m := New(s.arch, rng)
			x := mathx.NewMatrix(s.rows, s.arch.In)
			ys := make([]int, s.rows)
			for i := range ys {
				copy(x.Row(i), rng.NormalVec(s.arch.In, 0, 1))
				ys[i] = i % s.arch.Out
			}
			list := make([][]float64, 8)
			for i := range list {
				list[i] = New(s.arch, rng.SplitIndex("candidate", i)).ParamsCopy()
			}
			accs := m.AccuracyManyInto(nil, list, x, ys) // warm up scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(list) {
				accs = m.AccuracyManyInto(accs[:0], list, x, ys)
			}
		})
	}
}
