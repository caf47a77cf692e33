package mathx

import (
	"encoding/binary"
	"math"
	"testing"
)

// argMaxViaSoftmax is the definition ArgMaxSoftmax must reproduce.
func argMaxViaSoftmax(x []float64) int {
	p := CloneVec(x)
	SoftmaxInPlace(p)
	return ArgMax(p)
}

func checkArgMaxSoftmax(t *testing.T, x []float64) {
	t.Helper()
	want := argMaxViaSoftmax(x)
	if got := ArgMaxSoftmax(CloneVec(x)); got != want {
		t.Fatalf("ArgMaxSoftmax(%v) = %d, softmax then ArgMax = %d", x, got, want)
	}
}

// TestArgMaxSoftmaxMatchesSoftmax walks the rows where reading the class off
// the logits could differ from reading it off the probabilities: ties, leads
// the exponential rounds away, both sides of the margin, and every
// non-finite value at every position.
func TestArgMaxSoftmaxMatchesSoftmax(t *testing.T) {
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	down := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	rows := [][]float64{
		{0}, {-3.5}, {1e308}, // length 1
		{2, 2}, {2, 2, 2, 2}, {0, 0, 0}, {-1e308, -1e308}, {1e308, 1e308, 1e308}, // all equal
		{1, 3, 3, 2}, {3, 1, 3}, {-7, -7, -9}, // exact ties for the lead
		{1, up(1)}, {up(1), 1}, {down(5), 5, down(5)}, {1e10, up(1e10)}, {-4, down(-4)}, // leads of one ulp
		{0, argMaxMargin}, {argMaxMargin, 0}, // exactly the margin
		{0, down(argMaxMargin)}, {down(argMaxMargin), 0, -1}, // just under it
		{0, up(argMaxMargin)}, {up(argMaxMargin), 0, -1}, // just over it
		{7, 7 + 5e-10, 7 + 1e-9}, {7 + 2e-9, 7 + 5e-10, 7},
		{1e308, -1e308}, {-1e308, 1e308}, {-1e308, 0, 1e308}, {1e308, 0.5, -1e308, 1e308}, // spreads that overflow the subtraction
		{0, 5e-324}, {5e-324, 0}, {-5e-324, 0, 5e-324}, {math.Copysign(0, -1), 0}, // one ulp of zero, signed zeros
		{0, 1e-17}, {-1, -1, -1 + 1e-16}, {3, 3 + 1e-15, 3}, // leads exp rounds to a tie: the softmax names the first
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {0.3, -1.2, 4.4, 4.1, -9},
	}
	for _, x := range rows {
		checkArgMaxSoftmax(t, x)
	}
	base := []float64{0.25, 3, -2, 3 - 1e-12, 1}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for i := range base {
			x := CloneVec(base)
			x[i] = bad
			checkArgMaxSoftmax(t, x)
			for j := range base { // a second non-finite value anywhere else
				for _, bad2 := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
					y := CloneVec(x)
					y[j] = bad2
					checkArgMaxSoftmax(t, y)
				}
			}
		}
		checkArgMaxSoftmax(t, []float64{bad})
		checkArgMaxSoftmax(t, []float64{bad, bad, bad})
	}
}

// TestArgMaxSoftmaxSkipsTheSoftmaxWhenDecided pins the point of the function:
// a decided row is left as logits, an undecided one holds its softmax.
func TestArgMaxSoftmaxSkipsTheSoftmaxWhenDecided(t *testing.T) {
	x := []float64{1, 4, 2}
	if got := ArgMaxSoftmax(x); got != 1 || x[0] != 1 || x[1] != 4 || x[2] != 2 {
		t.Fatalf("decided row: class %d, row now %v; want class 1 and the logits untouched", got, x)
	}
	y := []float64{4, 4, 2}
	if got := ArgMaxSoftmax(y); got != 0 || y[0] >= 1 || y[0] != y[1] {
		t.Fatalf("tied row: class %d, row now %v; want class 0 and the softmax in place", got, y)
	}
}

func TestArgMaxSoftmaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on an empty row")
		}
	}()
	ArgMaxSoftmax(nil)
}

// FuzzArgMaxSoftmax reads the input as little-endian float64 bit patterns —
// so NaNs, infinities, subnormals and one-ulp neighbours are all one byte
// flip away — and holds the result against SoftmaxInPlace then ArgMax.
func FuzzArgMaxSoftmax(f *testing.F) {
	row := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(row(0))
	f.Add(row(1, 2, 3))
	f.Add(row(2, 2, 2))
	f.Add(row(0, argMaxMargin))
	f.Add(row(0, 1e-17))
	f.Add(row(1, math.Nextafter(1, 2), 1))
	f.Add(row(math.NaN(), 1, math.Inf(1)))
	f.Add(row(math.Inf(-1), math.Inf(-1)))
	f.Add(row(1e308, -1e308, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		x := make([]float64, len(data)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkArgMaxSoftmax(t, x)
	})
}
