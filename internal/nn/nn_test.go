package nn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/xrand"
)

func TestArchValidate(t *testing.T) {
	tests := []struct {
		name    string
		arch    Arch
		wantErr bool
	}{
		{"valid plain", Arch{In: 4, Out: 2}, false},
		{"valid hidden", Arch{In: 4, Hidden: []int{8, 8}, Out: 2}, false},
		{"zero in", Arch{In: 0, Out: 2}, true},
		{"zero out", Arch{In: 4, Out: 0}, true},
		{"bad hidden", Arch{In: 4, Hidden: []int{0}, Out: 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.arch.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestArchNumParams(t *testing.T) {
	tests := []struct {
		arch Arch
		want int
	}{
		{Arch{In: 3, Out: 2}, 3*2 + 2},
		{Arch{In: 4, Hidden: []int{5}, Out: 2}, 4*5 + 5 + 5*2 + 2},
		{Arch{In: 2, Hidden: []int{3, 4}, Out: 5}, 2*3 + 3 + 3*4 + 4 + 4*5 + 5},
	}
	for _, tt := range tests {
		if got := tt.arch.NumParams(); got != tt.want {
			t.Errorf("NumParams(%+v) = %d, want %d", tt.arch, got, tt.want)
		}
	}
	m := New(Arch{In: 4, Hidden: []int{5}, Out: 3}, xrand.New(1))
	if m.NumParams() != m.Arch().NumParams() {
		t.Error("model param count disagrees with Arch.NumParams")
	}
}

func TestParamsPerLayer(t *testing.T) {
	a := Arch{In: 4, Hidden: []int{5, 3}, Out: 2}
	per := a.ParamsPerLayer()
	want := []int{4*5 + 5, 5*3 + 3, 3*2 + 2}
	if len(per) != len(want) {
		t.Fatalf("ParamsPerLayer = %v", per)
	}
	total := 0
	for i := range want {
		if per[i] != want[i] {
			t.Fatalf("layer %d: %d params, want %d", i, per[i], want[i])
		}
		total += per[i]
	}
	if total != a.NumParams() {
		t.Fatal("ParamsPerLayer does not sum to NumParams")
	}
	if a.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d, want 3", a.NumLayers())
	}
}

func TestPrefixParams(t *testing.T) {
	a := Arch{In: 4, Hidden: []int{5}, Out: 2}
	tests := []struct {
		k    int
		want int
	}{
		{0, 0},
		{1, 4*5 + 5},
		{2, a.NumParams()},
		{99, a.NumParams()}, // clamped
	}
	for _, tt := range tests {
		if got := a.PrefixParams(tt.k); got != tt.want {
			t.Errorf("PrefixParams(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestForwardIsDistribution(t *testing.T) {
	rng := xrand.New(2)
	m := New(Arch{In: 6, Hidden: []int{10}, Out: 4}, rng)
	f := func(seed int64) bool {
		r := xrand.New(seed)
		x := r.NormalVec(6, 0, 3)
		p := m.Forward(x)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := xrand.New(3)
	m := New(Arch{In: 4, Hidden: []int{6}, Out: 3}, rng)
	c := m.Clone()
	before := m.ParamsCopy()
	c.Params()[0] += 100
	after := m.ParamsCopy()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("mutating a clone changed the original")
		}
	}
	// The clone must still produce valid outputs (layer views rebound).
	x := rng.NormalVec(4, 0, 1)
	_ = c.Forward(x)
}

func TestSetParamsRoundTrip(t *testing.T) {
	rng := xrand.New(4)
	m := New(Arch{In: 3, Out: 2}, rng)
	p := rng.NormalVec(m.NumParams(), 0, 1)
	m.SetParams(p)
	got := m.ParamsCopy()
	for i := range p {
		if got[i] != p[i] {
			t.Fatal("SetParams/ParamsCopy round trip failed")
		}
	}
}

func TestSetParamsPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Arch{In: 3, Out: 2}, xrand.New(1)).SetParams([]float64{1})
}

// gradCheck compares the analytic gradient against central finite
// differences for a single sample.
func TestGradientCheck(t *testing.T) {
	rng := xrand.New(5)
	m := New(Arch{In: 5, Hidden: []int{7}, Out: 3}, rng)
	x := rng.NormalVec(5, 0, 1)
	y := 1

	grads := make([]float64, m.NumParams())
	m.backward(x, y, grads)

	lossAt := func(p []float64) float64 {
		c := m.Clone()
		c.SetParams(p)
		l, _ := c.Evaluate(mathx.MatrixFromRows([][]float64{x}), []int{y})
		return l
	}

	const h = 1e-5
	base := m.ParamsCopy()
	maxRel := 0.0
	for i := 0; i < len(base); i += 7 { // spot-check a spread of indices
		pp := mathx.CloneVec(base)
		pp[i] += h
		up := lossAt(pp)
		pp[i] -= 2 * h
		down := lossAt(pp)
		numeric := (up - down) / (2 * h)
		denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(grads[i]))
		rel := math.Abs(numeric-grads[i]) / denom
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 1e-4 {
		t.Fatalf("gradient check failed: max relative error %v", maxRel)
	}
}

// makeBlobs builds a linearly separable 3-class toy problem in flat storage.
func makeBlobs(rng *xrand.RNG, n int) (x mathx.Matrix, ys []int) {
	centers := [][]float64{{3, 0}, {-3, 3}, {0, -3}}
	x = mathx.NewMatrix(n, 2)
	ys = make([]int, n)
	for i := 0; i < n; i++ {
		c := i % len(centers)
		row := x.Row(i)
		row[0] = rng.Normal(centers[c][0], 0.5)
		row[1] = rng.Normal(centers[c][1], 0.5)
		ys[i] = c
	}
	return x, ys
}

func TestTrainingLearnsBlobs(t *testing.T) {
	rng := xrand.New(6)
	xs, ys := makeBlobs(rng, 300)
	m := New(Arch{In: 2, Hidden: []int{16}, Out: 3}, rng)
	_, accBefore := m.Evaluate(xs, ys)
	m.Train(xs, ys, SGDConfig{LR: 0.2, Epochs: 20, BatchSize: 10, Shuffle: true}, rng)
	loss, accAfter := m.Evaluate(xs, ys)
	if accAfter < 0.95 {
		t.Fatalf("training failed to learn blobs: acc %v -> %v (loss %v)", accBefore, accAfter, loss)
	}
}

func TestSoftmaxRegressionLearns(t *testing.T) {
	rng := xrand.New(7)
	xs, ys := makeBlobs(rng, 300)
	m := New(Arch{In: 2, Out: 3}, rng) // no hidden layers
	m.Train(xs, ys, SGDConfig{LR: 0.5, Epochs: 15, BatchSize: 10, Shuffle: true}, rng)
	if _, acc := m.Evaluate(xs, ys); acc < 0.95 {
		t.Fatalf("softmax regression accuracy %v, want >= 0.95", acc)
	}
}

func TestTrainMaxBatchesCapsWork(t *testing.T) {
	rng := xrand.New(8)
	xs, ys := makeBlobs(rng, 200)
	m := New(Arch{In: 2, Out: 3}, rng)
	got := m.Train(xs, ys, SGDConfig{LR: 0.1, Epochs: 2, BatchSize: 10, MaxBatches: 3}, rng)
	if got != 6 {
		t.Fatalf("expected 2 epochs x 3 batches = 6, got %d", got)
	}
	full := m.Train(xs, ys, SGDConfig{LR: 0.1, Epochs: 1, BatchSize: 10}, rng)
	if full != 20 {
		t.Fatalf("expected 20 uncapped batches, got %d", full)
	}
}

func TestTrainEmptyAndNoEpochs(t *testing.T) {
	rng := xrand.New(9)
	m := New(Arch{In: 2, Out: 2}, rng)
	if got := m.Train(mathx.Matrix{}, nil, SGDConfig{LR: 0.1, Epochs: 5}, rng); got != 0 {
		t.Errorf("training on empty data should do nothing, got %d batches", got)
	}
	xs, ys := makeBlobs(rng, 10)
	if got := m.Train(xs, ys, SGDConfig{LR: 0.1, Epochs: 0}, rng); got != 0 {
		t.Errorf("zero epochs should do nothing, got %d batches", got)
	}
}

func TestProximalTermPullsTowardCenter(t *testing.T) {
	rng := xrand.New(10)
	xs, ys := makeBlobs(rng, 200)

	base := New(Arch{In: 2, Out: 3}, rng)
	center := base.ParamsCopy()

	// Keep lr*mu well below the explicit-Euler stability bound of 2.
	plain := base.Clone()
	plain.Train(xs, ys, SGDConfig{LR: 0.1, Epochs: 10, BatchSize: 10}, rng)

	prox := base.Clone()
	prox.Train(xs, ys, SGDConfig{LR: 0.1, Epochs: 10, BatchSize: 10, ProxMu: 2, ProxCenter: center}, rng)

	dPlain := mathx.L2Dist(plain.Params(), center)
	dProx := mathx.L2Dist(prox.Params(), center)
	if dProx >= dPlain {
		t.Fatalf("proximal term should keep weights closer to center: prox %v >= plain %v", dProx, dPlain)
	}
}

func TestProxPanicsWithoutCenter(t *testing.T) {
	rng := xrand.New(11)
	m := New(Arch{In: 2, Out: 2}, rng)
	xs, ys := makeBlobs(rng, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when ProxMu set without center")
		}
	}()
	m.Train(xs, ys, SGDConfig{LR: 0.1, Epochs: 1, ProxMu: 1}, rng)
}

func TestEvaluateEmpty(t *testing.T) {
	m := New(Arch{In: 2, Out: 2}, xrand.New(12))
	loss, acc := m.Evaluate(mathx.Matrix{}, nil)
	if loss != 0 || acc != 0 {
		t.Fatalf("Evaluate(empty) = (%v, %v), want (0, 0)", loss, acc)
	}
}

func TestAverageParamsIsMean(t *testing.T) {
	a := []float64{0, 2, 4}
	b := []float64{2, 2, 0}
	got := AverageParams(a, b)
	want := []float64{1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AverageParams got %v want %v", got, want)
		}
	}
}

func TestWeightedAverageParams(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{4, 8}
	got := WeightedAverageParams([][]float64{a, b}, []float64{3, 1})
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("WeightedAverageParams got %v", got)
	}
}

func TestWeightedAverageParamsPanics(t *testing.T) {
	cases := []func(){
		func() { WeightedAverageParams(nil, nil) },
		func() { WeightedAverageParams([][]float64{{1}}, []float64{0}) },
		func() { WeightedAverageParams([][]float64{{1}, {1, 2}}, []float64{1, 1}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Averaging two identical models must produce the same predictions — the
// foundation of the DAG averaging step.
func TestAverageOfIdenticalModelsIsIdentity(t *testing.T) {
	rng := xrand.New(13)
	m := New(Arch{In: 4, Hidden: []int{5}, Out: 3}, rng)
	avg := AverageParams(m.ParamsCopy(), m.ParamsCopy())
	c := m.Clone()
	c.SetParams(avg)
	x := rng.NormalVec(4, 0, 1)
	p1 := mathx.CloneVec(m.Forward(x))
	p2 := c.Forward(x)
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-12 {
			t.Fatal("average of identical models changed predictions")
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() *MLP {
		rng := xrand.New(99)
		m := New(Arch{In: 2, Hidden: []int{8}, Out: 3}, rng.Split("init"))
		xs, ys := makeBlobs(rng.Split("data"), 100)
		m.Train(xs, ys, SGDConfig{LR: 0.3, Epochs: 5, BatchSize: 10, Shuffle: true}, rng.Split("train"))
		return m
	}
	a, b := build(), build()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("training is not deterministic under a fixed seed")
		}
	}
}

// TestEvaluateParamsMatchesSetParams pins the zero-copy evaluation path: it
// must be bit-identical to SetParams+Evaluate and must leave the model's own
// weights untouched.
func TestEvaluateParamsMatchesSetParams(t *testing.T) {
	rng := xrand.New(3)
	arch := Arch{In: 6, Hidden: []int{5, 4}, Out: 3}
	m := New(arch, rng)
	other := New(arch, rng.Split("other"))
	xs, ys := randomSamples(rng, 40, arch.In, arch.Out)

	own := m.ParamsCopy()
	wantLoss, wantAcc := func() (float64, float64) {
		c := m.Clone()
		c.SetParams(other.Params())
		return c.Evaluate(xs, ys)
	}()
	gotLoss, gotAcc := m.EvaluateParams(other.Params(), xs, ys)
	if gotLoss != wantLoss || gotAcc != wantAcc {
		t.Fatalf("EvaluateParams = (%v, %v), want (%v, %v)", gotLoss, gotAcc, wantLoss, wantAcc)
	}
	for i, p := range m.Params() {
		if p != own[i] {
			t.Fatalf("EvaluateParams mutated model weights at %d", i)
		}
	}
	// The model must still evaluate its own weights after the aliasing round
	// trip.
	selfLoss, selfAcc := m.Evaluate(xs, ys)
	c := m.Clone()
	cLoss, cAcc := c.Evaluate(xs, ys)
	if selfLoss != cLoss || selfAcc != cAcc {
		t.Fatalf("model state corrupted after EvaluateParams: (%v, %v) vs (%v, %v)", selfLoss, selfAcc, cLoss, cAcc)
	}
}

// TestEvaluateParamsLengthMismatchPanics: aliasing a wrong-shaped vector
// must fail loudly, exactly like SetParams.
func TestEvaluateParamsLengthMismatchPanics(t *testing.T) {
	m := New(Arch{In: 3, Out: 2}, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("EvaluateParams with short vector did not panic")
		}
	}()
	m.EvaluateParams([]float64{1, 2}, mathx.Matrix{}, nil)
}

// randomSamples draws labeled samples for the evaluation tests.
func randomSamples(rng *xrand.RNG, n, in, classes int) (mathx.Matrix, []int) {
	x := mathx.NewMatrix(n, in)
	ys := make([]int, n)
	for i := 0; i < n; i++ {
		copy(x.Row(i), rng.NormalVec(in, 0, 1))
		ys[i] = rng.Intn(classes)
	}
	return x, ys
}
