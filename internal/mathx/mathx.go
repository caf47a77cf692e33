// Package mathx provides the dense float64 kernels used by the neural-network
// substrate and the metrics code: vector arithmetic, softmax/log-sum-exp,
// basic summary statistics, and the batched matrix kernels of the training
// and evaluation hot paths.
//
// Vector functions operate on plain []float64 slices. Batched kernels
// operate on Matrix — contiguous row-major storage with zero-copy row views
// (matrix.go, kernels.go) — which keeps the hot loops free of interface
// dispatch and pointer chasing.
//
// Accumulation order is part of this package's API: every kernel documents
// the exact order in which each output element consumes its contributions,
// and the batched kernels are bit-identical to the scalar loops they
// replace (see the float-determinism contract in kernels.go). Callers
// throughout the repository — worker-count invariance, checkpoint resume,
// the CI metric gate — depend on that, so reordering a reduction is a
// breaking change even when it is algebraically neutral.
package mathx

import (
	"math"
	"sort"
)

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Axpy computes y += alpha*x in place, each element as one rounded product
// then one rounded sum. It panics if lengths differ. On amd64 with AVX2 it
// runs a vector body with the same bits (kernels.go's contract), which reads
// x ahead of writing y: x may be y itself but must not otherwise overlap it.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mathx: Axpy length mismatch")
	}
	if useAVX2 && len(x) > 0 {
		axpy(alpha, &x[0], &y[0], len(x))
		return
	}
	y = y[:len(x)] // bounds-check elimination
	for i, v := range x {
		y[i] += float64(alpha * v) // the conversion keeps the product rounded: no fused multiply-add
	}
}

// AddTo computes dst += src in place. It panics if lengths differ.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mathx: AddTo length mismatch")
	}
	dst = dst[:len(src)] // bounds-check elimination
	for i, v := range src {
		dst[i] += v
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// MinMax returns the minimum and maximum of x.
// It panics on an empty slice.
func MinMax(x []float64) (min, max float64) {
	if len(x) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := CloneVec(x)
	sort.Float64s(sorted)
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// ArgMax returns the index of the largest element, breaking ties by the
// lowest index. It panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best := 0
	for i, v := range x[1:] {
		if v > x[best] {
			best = i + 1
		}
	}
	return best
}

// SoftmaxInPlace converts logits x to a probability distribution in place,
// using the stable shifted-exponent formulation. The shift is the max that
// MinMax reports, found by the same v > max scan: a NaN at index 0 is the
// shift, a later NaN never is, and of tied zeros the first wins. The
// exponentials are math.Exp's and are summed in ascending order. On amd64
// with AVX2 and FMA, where math.Exp's own branch fuses, a vector body with
// math.Exp's bits computes them four at a time (kernels.go's contract).
func SoftmaxInPlace(x []float64) {
	if len(x) == 0 {
		return
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	vector := useAVX2 && useFMAExp
	var s float64
	if vector {
		s = expShiftedSum(x, max)
	} else {
		for i, v := range x {
			e := math.Exp(v - max)
			x[i] = e
			s += e
		}
	}
	if s == 0 {
		Fill(x, 1/float64(len(x)))
		return
	}
	if vector {
		divRow(&x[0], len(x), s)
		return
	}
	for i := range x {
		x[i] /= s
	}
}

// argMaxMargin is the lead at which ArgMaxSoftmax trusts the logits.
const argMaxMargin = 1e-9

// ArgMaxSoftmax returns exactly the index ArgMax would return after
// SoftmaxInPlace(x), without the exponentials whenever the logits already
// decide it. x is scratch: it holds either the untouched logits or their
// softmax afterwards. It panics on an empty slice.
//
// The logits decide when every one is finite and the largest leads the
// runner-up by at least argMaxMargin in the softmax's own subtraction
// (v - max, which is monotone in v, so the runner-up bounds all others).
// SoftmaxInPlace then maps the largest to exp(0) = 1 exactly and every other
// entry to exp(d) with d <= -1e-9, at most 1 - 1e-9 give or take an ulp:
// millions of ulps below 1. The shared divisor lies in [1, len(x)], division
// is monotone and rounds within half an ulp, so the quotients can neither
// swap nor meet, and the winner is the unique largest logit. Anything else — a
// tie, a lead inside the margin, an infinity or a NaN anywhere — runs the
// softmax, so the answer is SoftmaxInPlace's by construction.
func ArgMaxSoftmax(x []float64) int {
	if len(x) == 0 {
		panic("mathx: ArgMaxSoftmax of empty slice")
	}
	best, top, next := 0, x[0], math.Inf(-1)
	nonFinite := x[0] - x[0] // 0 for a finite value, NaN for ±Inf and NaN
	for i, v := range x[1:] {
		nonFinite += v - v
		if v > top {
			best, top, next = i+1, v, top
		} else if v > next {
			next = v
		}
	}
	if nonFinite == 0 && top-next >= argMaxMargin {
		return best
	}
	SoftmaxInPlace(x)
	return ArgMax(x)
}

// MeanVecs returns the element-wise mean of the given equal-length vectors.
// It panics if vecs is empty or lengths differ.
//
// Each output element sums its contributions in argument order starting from
// zero and scales by 1/len once at the end — the historical
// AddTo-then-Scale sequence, fused into one pass per element, so results
// are bit-identical to it.
func MeanVecs(vecs ...[]float64) []float64 {
	if len(vecs) == 0 {
		panic("mathx: MeanVecs of no vectors")
	}
	n := len(vecs[0])
	for _, v := range vecs {
		if len(v) != n {
			panic("mathx: MeanVecs length mismatch")
		}
	}
	out := make([]float64, n)
	inv := 1 / float64(len(vecs))
	if len(vecs) == 2 {
		// The model-averaging fast path: every DAG client averages exactly
		// two tip models per round. The sum still starts from zero so even
		// signed-zero inputs reduce exactly like the generic loop.
		a, b := vecs[0], vecs[1][:n]
		for i, av := range a {
			t := 0.0
			t += av
			t += b[i]
			out[i] = t * inv
		}
		return out
	}
	for i := range out {
		t := 0.0
		for _, v := range vecs {
			t += v[i]
		}
		out[i] = t * inv
	}
	return out
}

// L2Dist returns the Euclidean distance between a and b.
// It panics if lengths differ.
func L2Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: L2Dist length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// Backend names the kernels this process runs: "avx2" where the assembly
// bodies of AffineRows, AccumGrads, BackpropReLUDelta and Axpy were selected at
// start-up, "avx2+fma" where the softmax's vector exponential was too,
// "generic" for the Go loops; xrand's assembly follows the same probe. All
// produce the same bits (kernels.go); the name is for whoever reads timings.
func Backend() string {
	switch {
	case useAVX2 && useFMAExp:
		return "avx2+fma"
	case useAVX2:
		return "avx2"
	}
	return "generic"
}
