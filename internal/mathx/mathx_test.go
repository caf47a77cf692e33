package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// sameBits reports whether a and b are the same float64 word, treating any
// two NaNs as equal: NaN payloads are outside the kernels' contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"ones", []float64{1, 1, 1}, []float64{1, 2, 3}, 6},
		{"orthogonal", []float64{1, 0}, []float64{0, 5}, 0},
		{"negative", []float64{-1, 2}, []float64{3, 4}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dot() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, y)
	want := []float64{3, 4, 5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
}

func TestFill(t *testing.T) {
	x := []float64{1, 2}
	Fill(x, -1)
	if x[0] != -1 || x[1] != -1 {
		t.Fatalf("Fill got %v", x)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax got (%v, %v)", min, max)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5}}
	for _, tt := range tests {
		if got := Quantile(x, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Quantile must not mutate its input.
	unsorted := []float64{3, 1, 2}
	Quantile(unsorted, 0.5)
	if unsorted[0] != 3 {
		t.Error("Quantile mutated input")
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		x    []float64
		want int
	}{
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{5, 5, 5}, 0}, // ties break low
		{[]float64{-3, -1, -2}, 1},
	}
	for _, tt := range tests {
		if got := ArgMax(tt.x); got != tt.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp wild quick-generated values into a sane logit range.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Max(-1e3, math.Min(v, 1e3))
		}
		SoftmaxInPlace(x)
		sum := 0.0
		for _, p := range x {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := []float64{1000, 1000, 1000}
	SoftmaxInPlace(x)
	for _, p := range x {
		if !almostEqual(p, 1.0/3.0, 1e-9) {
			t.Fatalf("softmax of equal huge logits should be uniform, got %v", x)
		}
	}
	y := []float64{-1e308, 0}
	SoftmaxInPlace(y)
	if !almostEqual(y[1], 1, 1e-9) {
		t.Fatalf("softmax should concentrate on the max, got %v", y)
	}
}

// softmaxViaMinMax is SoftmaxInPlace's scalar body with its shift taken from
// MinMax, as it was before the shift scan dropped the minimum nobody read and
// before the vector exponential: the oracle the max-only scan and the vector
// body are held to.
func softmaxViaMinMax(x []float64) {
	if len(x) == 0 {
		return
	}
	_, max := MinMax(x)
	s := 0.0
	for i, v := range x {
		e := math.Exp(v - max)
		x[i] = e
		s += e
	}
	if s == 0 {
		Fill(x, 1/float64(len(x)))
		return
	}
	for i := range x {
		x[i] /= s
	}
}

// checkSoftmaxShift fails the test unless SoftmaxInPlace, on every kernel
// path this CPU runs, and the scalar oracle agree on every word of row (any
// two NaNs agree).
func checkSoftmaxShift(t *testing.T, row []float64) {
	t.Helper()
	want := CloneVec(row)
	softmaxViaMinMax(want)
	for _, be := range kernelBackends {
		if !be.available {
			continue
		}
		got := CloneVec(row)
		be.with(func() { SoftmaxInPlace(got) })
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: SoftmaxInPlace(%v)[%d] = %x (%v), scalar loop with MinMax shift gives %x (%v)",
					be.name, row, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
	}
}

// specials are the values the differential tests plant among ordinary ones.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// softmaxFuzzLengths are the row lengths FuzzSoftmaxInPlace tries: every
// length around the vector bodies' groups of four and eight and their
// masked last groups, and the two heads the workloads train (10 and 100
// classes).
var softmaxFuzzLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 17, 100}

// FuzzSoftmaxInPlace holds SoftmaxInPlace, on every path this CPU runs, to
// the scalar loop word for word. Each logit takes two bytes of the
// input: a finite logit in [-1024, 1024) in 1/32 steps, or (when its first
// byte is 0xff) one of specials; the spread reaches past both ends of the
// exponential's normal range.
func FuzzSoftmaxInPlace(f *testing.F) {
	f.Add([]byte{}, uint8(10))
	f.Add([]byte{0x10, 0x00, 0x80, 0x01, 0x7f, 0xff, 0xff, 0x05, 0x00, 0x40}, uint8(11))
	f.Add([]byte{0x00, 0x00, 0x40, 0x00, 0x80, 0x00, 0xc0, 0x00, 0xff, 0x07}, uint8(4))
	f.Add([]byte{0xe8, 0x00, 0x01, 0x00, 0x02, 0x00, 0xff, 0x06, 0x7a, 0x13}, uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, length uint8) {
		row := make([]float64, softmaxFuzzLengths[int(length)%len(softmaxFuzzLengths)])
		for i := range row {
			if len(raw) < 2 {
				row[i] = float64(i%7) - 3
				continue
			}
			hi, lo := raw[(2*i)%len(raw)], raw[(2*i+1)%len(raw)]
			if hi == 0xff {
				row[i] = specials[int(lo)%len(specials)]
				continue
			}
			row[i] = float64(int16(uint16(hi)<<8|uint16(lo))) / 32
		}
		checkSoftmaxShift(t, row)
	})
}

// TestSoftmaxShiftIsMinMaxMax pins the rows where a max scan could pick a
// different shift than MinMax's: a NaN first (it is the shift, and every
// probability is NaN) or later (never the shift), infinities, and ties for
// the max between +0 and -0 in either order.
func TestSoftmaxShiftIsMinMaxMax(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, row := range [][]float64{
		{nan}, {nan, 1, 2}, {1, nan, 2}, {1, 2, nan}, {-inf, nan, -inf},
		{inf, 1}, {1, inf, inf}, {inf, -inf, nan}, {-inf, -inf}, {-inf, 3, -inf},
		{0, negZero}, {negZero, 0}, {negZero, negZero, -1}, {-1, 0, negZero, 0},
		{5}, {2, 2, 1}, {-1e308, 0}, {1000, 1000, 1000}, {math.MaxFloat64, -math.MaxFloat64},
	} {
		checkSoftmaxShift(t, row)
	}
}

func TestMeanVecs(t *testing.T) {
	got := MeanVecs([]float64{0, 2}, []float64{2, 4})
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("MeanVecs got %v", got)
	}
}

func TestMeanVecsIsElementwiseMeanQuick(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for i := 0; i < n; i++ {
			// Skip values whose sum would overflow; MeanVecs is not
			// specified for inputs outside the representable-sum range.
			if math.IsNaN(a[i]) || math.Abs(a[i]) > 1e150 || math.IsNaN(b[i]) || math.Abs(b[i]) > 1e150 {
				return true
			}
		}
		m := MeanVecs(a, b)
		for i := 0; i < n; i++ {
			want := (a[i] + b[i]) / 2
			if !almostEqual(m[i], want, 1e-9*math.Max(1, math.Abs(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL2(t *testing.T) {
	if got := L2Dist([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("L2Dist = %v, want 5", got)
	}
}

func TestCloneVecIndependent(t *testing.T) {
	a := []float64{1, 2}
	b := CloneVec(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("CloneVec aliases its input")
	}
}
