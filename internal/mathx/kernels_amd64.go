//go:build !purego

package mathx

import (
	"math"
	"unsafe"
)

// useAVX2 selects the assembly bodies of kernels_amd64.s (and, together with
// useFMAExp, of softmax_amd64.s) over the Go loops. It is probed once; both
// paths produce the same bits (see the contract in kernels.go), so which one
// runs is a matter of speed only. Tests flip it to hold the two against each
// other.
var useAVX2 = HasAVX2()

// HasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state (CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1-2, CPUID.7:EBX bit 5): whether
// the AVX2 bodies of this package and of xrand can run. The softmax's vector
// exponential needs more: FMA as well, and math.Exp taking its FMA branch
// (useFMAExp). HasAVX2 is false in a build with the purego tag. It executes
// CPUID, which a hypervisor may trap; callers probe once, at start-up.
func HasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// hasFMA reports whether the CPU implements FMA3 (CPUID.1:ECX bit 12), which
// softmax_amd64.s needs beside AVX2; HasAVX2 has checked that the OS saves
// the YMM state.
func hasFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}

// useFMAExp selects softmax_amd64.s's vector exponential and divide for
// SoftmaxInPlace while useAVX2 is set. Its bits are those of math.Exp's FMA
// branch, so it is on only where math.Exp takes that branch in this process:
// the CPU has AVX2 and FMA, and the body agrees with math.Exp on
// expCheckInputs, inputs on which the branch with and the branch without FMA
// differ. A CPU without FMA, or GODEBUG=cpu.fma=off, leaves the Go loop.
var useFMAExp = useAVX2 && hasFMA() && expSelfCheck()

// expCheckInputs are arguments on which math.Exp's two amd64 branches differ
// in the last bit (drawn from [-64, 0], where about one argument in eleven
// does); a multiple of four, every one a normal group for softmaxExp.
var expCheckInputs = [...]float64{
	-50.807579850339906, -23.20444002879399, -54.55324461125149, -0.8150105459332551,
	-10.158400644203077, -58.42685437057814, -11.304557347348116, -53.511499937556856,
	-43.948373233564666, -51.609922096398726, -48.164584227999974, -34.372762282440405,
	-37.9355014024993, -34.23578409515152, -39.15589539804056, -43.39560587751116,
	-5.40424887357522, -63.29578130545637, -23.84246654322729, -42.87852479348961,
	-29.482561194090962, -18.246319588035277, -48.95203612960488, -57.30661970846684,
	-59.11653487814611, -49.53504661464063, -29.5078735049293, -62.65646459380489,
	-9.235598788179836, -24.901218404461105, -41.74703503875585, -18.291946674411356,
}

// expSelfCheck reports whether softmaxExp gives math.Exp's words on
// expCheckInputs. It must only run where hasFMA and HasAVX2 hold.
func expSelfCheck() bool {
	got := expCheckInputs
	if done, _ := softmaxExp(&got[0], len(got), 0, 0); done != len(got) {
		return false
	}
	for i, x := range expCheckInputs {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// affineTileN computes N consecutive rows of AffineRows for every output:
// x and out point at the first of the N rows, floor is 0 for the ReLU and
// -Inf for none. in may be zero; outDim may not.
//
//go:noescape
func affineTile8(x, w, b, out *float64, in, outDim int, floor float64)

//go:noescape
func affineTile4(x, w, b, out *float64, in, outDim int, floor float64)

//go:noescape
func affineTile1(x, w, b, out *float64, in, outDim int, floor float64)

// accumCols adds sum_j s[j*sStride] * m[j*mStride+c], j ascending over
// [0, k) with zero s skipped, to dst[c] for c in [0, n), and the same s to
// *bias. n and k must be positive.
//
//go:noescape
func accumCols(dst, s, m, bias *float64, n, k, sStride, mStride int)

// backpropRow sets dst[c] to sum_j s[j] * m[j*mStride+c], j ascending over
// [0, k) with zero s skipped, or to zero where act[c] <= 0, for c in [0, n).
// k must be positive.
//
//go:noescape
func backpropRow(dst, s, m, act *float64, n, k, mStride int)

// axpy adds alpha*x[i] to y[i] for i in [0, n); n must be positive.
//
//go:noescape
func axpy(alpha float64, x, y *float64, n int)

// softmaxExp sets x[i] = exp(x[i]-shift) four at a time from i = 0 and adds
// each result to sum in ascending i, stopping before the first group of four
// with a lane outside the exponential's normal range (softmax_amd64.s) and
// before a group that would run past n. It returns the elements done, a
// multiple of four, and the sum so far.
//
//go:noescape
func softmaxExp(x *float64, n int, shift, sum float64) (done int, total float64)

// divRow divides x[i] by s for i in [0, n); n must be positive.
//
//go:noescape
func divRow(x *float64, n int, s float64)

// affineRowsAVX2 is affineRows on tiles of eight and four rows, one call into
// the assembly per tile. Every row is computed from scratch, so a row count
// that is not a multiple of the tile is finished by a tile that ends at the
// last row and recomputes the rows it shares with its predecessor to the same
// bits; fewer than four rows go one at a time.
func affineRowsAVX2(x Matrix, w, b []float64, out Matrix, relu bool) {
	in, outDim, rows := x.Cols, len(b), x.Rows
	if rows == 0 || outDim == 0 {
		return
	}
	floor := math.Inf(-1)
	if relu {
		floor = 0
	}
	// SliceData rather than &s[i]: with in == 0 x and w have no element to
	// point at, and the kernel reads none.
	tile := func(kernel func(x, w, b, out *float64, in, outDim int, floor float64), r int) {
		kernel(unsafe.SliceData(x.Data[r*in:]), unsafe.SliceData(w), &b[0], &out.Data[r*outDim], in, outDim, floor)
	}
	r := 0
	for ; r+8 <= rows; r += 8 {
		tile(affineTile8, r)
	}
	switch rest := rows - r; {
	case rest == 0:
	case rows < 4:
		for ; r < rows; r++ {
			tile(affineTile1, r)
		}
	case rest > 4 && rows >= 8:
		tile(affineTile8, rows-8)
	default:
		if rest > 4 { // five to seven rows in all
			tile(affineTile4, 0)
		}
		tile(affineTile4, rows-4)
	}
}

func accumGradsAVX2(delta, act Matrix, wg, bg []float64) {
	in, outDim, rows := act.Cols, delta.Cols, delta.Rows
	for o := 0; o < outDim; o++ {
		accumCols(&wg[o*in], &delta.Data[o], &act.Data[0], &bg[o], in, rows, outDim, in)
	}
}

func backpropReLUDeltaAVX2(delta Matrix, w []float64, act, prev Matrix) {
	in, outDim := prev.Cols, delta.Cols
	for r := 0; r < delta.Rows; r++ {
		backpropRow(&prev.Data[r*in], &delta.Data[r*outDim], &w[0], &act.Data[r*in], in, outDim, in)
	}
}

// expShiftedSum is SoftmaxInPlace's exponential loop on softmaxExp: x[i] =
// exp(x[i]-shift) and the sum of them in ascending i, with math.Exp on every
// group the vector body hands back and on the tail.
func expShiftedSum(x []float64, shift float64) float64 {
	s := 0.0
	for i := 0; i < len(x); {
		if len(x)-i >= 4 {
			var done int
			done, s = softmaxExp(&x[i], len(x)-i, shift, s)
			i += done
		}
		for end := min(i+4, len(x)); i < end; i++ {
			e := math.Exp(x[i] - shift)
			x[i] = e
			s += e
		}
	}
	return s
}
