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

// useAVX512 selects, where useAVX2 is set, the eight-lane bodies of
// kernels512_amd64.s and softmaxExp's eight-lane loop: the same contract and
// the same bits again, on twice the lanes. It is declared before useFMAExp,
// whose start-up check runs softmaxExp and so must see it set.
var useAVX512 = useAVX2 && probeCPU().avx512()

// HasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state: whether the AVX2 bodies of this package and of xrand can run. The
// softmax's vector exponential needs more: FMA as well, and math.Exp taking
// its FMA branch (useFMAExp). HasAVX2 is false in a build with the purego
// tag. It executes CPUID, which a hypervisor may trap; callers probe once, at
// start-up.
func HasAVX2() bool { return probeCPU().avx2() }

// cpuWords are the CPUID and XGETBV words the kernels' selection reads.
type cpuWords struct {
	maxID uint32 // CPUID.0:EAX, the highest leaf
	ecx1  uint32 // CPUID.1:ECX
	ebx7  uint32 // CPUID.(7,0):EBX, zero where maxID < 7
	xcr0  uint32 // XCR0's low word, zero where the OS has not set OSXSAVE
}

// probeCPU reads the words. XGETBV faults unless CPUID.1:ECX has OSXSAVE, and
// leaf 7 exists only from maxID 7 on, so each is read only where it exists.
func probeCPU() cpuWords {
	var w cpuWords
	w.maxID, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.ecx1&cpuOSXSAVE != 0 {
		w.xcr0, _ = xgetbv()
	}
	if w.maxID >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	return w
}

const (
	cpuOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuAVX     = 1 << 28 // CPUID.1:ECX
	cpuAVX2    = 1 << 5  // CPUID.7:EBX
	cpuAVX512F = 1 << 16 // CPUID.7:EBX
	xcr0YMM    = 1<<1 | 1<<2
	// XCR0 bits 5-7: the opmask registers, the upper halves of ZMM0-15 and
	// ZMM16-31.
	xcr0ZMM = 1<<5 | 1<<6 | 1<<7
)

// avx2 reports whether the AVX2 bodies can run: AVX and OSXSAVE in
// CPUID.1:ECX, the OS saving the SSE and YMM state (XCR0 bits 1-2) and AVX2
// in CPUID.7:EBX.
func (w cpuWords) avx2() bool {
	return w.maxID >= 7 && w.ecx1&(cpuOSXSAVE|cpuAVX) == cpuOSXSAVE|cpuAVX &&
		w.xcr0&xcr0YMM == xcr0YMM && w.ebx7&cpuAVX2 != 0
}

// avx512 reports whether the eight-lane bodies can run as well: AVX512F in
// CPUID.7:EBX, the only AVX-512 subset they use (ZMM arithmetic, opmask
// loads, stores and compares, 512-bit shuffles, conversions and broadcasts),
// and the OS saving the opmask and ZMM state (XCR0 bits 5-7). A CPU or
// hypervisor that reports AVX512F with that state off gets the AVX2 bodies.
func (w cpuWords) avx512() bool {
	return w.avx2() && w.ebx7&cpuAVX512F != 0 && w.xcr0&xcr0ZMM == xcr0ZMM
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
// expCheckInputs, at each width this process runs. It must only run where
// hasFMA and HasAVX2 hold.
func expSelfCheck() bool {
	widths := []int{4}
	if useAVX512 {
		widths = append(widths, 8)
	}
	for _, lanes := range widths {
		got := expCheckInputs
		if done, _ := softmaxExp(&got[0], len(got), lanes, 0, 0); done != len(got) {
			return false
		}
		for i, x := range expCheckInputs {
			if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
				return false
			}
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

// softmaxExp sets x[i] = exp(x[i]-shift) for i in [0, n) a group of lanes
// (4, or 8 with AVX-512) at a time, the last group masked, and adds each
// result to sum in ascending i, stopping before the first group
// with an element outside the exponential's normal range (softmax_amd64.s).
// It returns the elements done, n or that group's start, and the sum so far.
// n must be positive.
//
//go:noescape
func softmaxExp(x *float64, n, lanes int, shift, sum float64) (done int, total float64)

// divRow divides x[i] by s for i in [0, n); n must be positive.
//
//go:noescape
func divRow(x *float64, n int, s float64)

// The eight-lane bodies of kernels512_amd64.s: the same operations as the
// four-lane ones above, with two differences in what they take.
// affineTileNZ needs outDim >= 8 and also comes in a height of two;
// accumColsZ runs outs outputs in one call (all of AccumGrads, one call per
// layer), output q at dst + q·n, s + q and bias + q.

//go:noescape
func affineTile8Z(x, w, b, out *float64, in, outDim int, floor float64)

//go:noescape
func affineTile4Z(x, w, b, out *float64, in, outDim int, floor float64)

//go:noescape
func affineTile2Z(x, w, b, out *float64, in, outDim int, floor float64)

//go:noescape
func affineTile1Z(x, w, b, out *float64, in, outDim int, floor float64)

//go:noescape
func accumColsZ(dst, s, m, bias *float64, n, k, sStride, mStride, outs int)

//go:noescape
func backpropRowZ(dst, s, m, act *float64, n, k, mStride int)

//go:noescape
func axpyZ(alpha float64, x, y *float64, n int)

// affineRowsAsm is affineRows on tiles of rows, one call into the assembly
// per tile. The AVX-512 tiles (outDim >= 8: a tile's lanes are eight outputs)
// are eight rows high and then four, two and one for the rest, each tile
// transposing the weights once; the two-row tile finishes a ten-row
// minibatch at about three quarters of the cost of two one-row tiles
// (BenchmarkKernels' affine legs). The AVX2 tiles are eight and four rows
// high; every row is computed from scratch, so a row count that is not a
// multiple of the tile is finished by a tile that ends at the last row and
// recomputes the rows it shares with its predecessor to the same bits;
// fewer than four rows go one at a time.
func affineRowsAsm(x Matrix, w, b []float64, out Matrix, relu bool) {
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
	if useAVX512 && outDim >= 8 {
		for ; r+8 <= rows; r += 8 {
			tile(affineTile8Z, r)
		}
		if rows-r >= 4 {
			tile(affineTile4Z, r)
			r += 4
		}
		if rows-r >= 2 {
			tile(affineTile2Z, r)
			r += 2
		}
		if r < rows {
			tile(affineTile1Z, r)
		}
		return
	}
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

// axpyAsm is Axpy's vector body for len(x) > 0.
func axpyAsm(alpha float64, x, y []float64) {
	if useAVX512 {
		axpyZ(alpha, &x[0], &y[0], len(x))
		return
	}
	axpy(alpha, &x[0], &y[0], len(x))
}

func accumGradsAsm(delta, act Matrix, wg, bg []float64) {
	in, outDim, rows := act.Cols, delta.Cols, delta.Rows
	if outDim == 0 {
		return
	}
	if useAVX512 {
		accumColsZ(&wg[0], &delta.Data[0], &act.Data[0], &bg[0], in, rows, outDim, in, outDim)
		return
	}
	for o := 0; o < outDim; o++ {
		accumCols(&wg[o*in], &delta.Data[o], &act.Data[0], &bg[o], in, rows, outDim, in)
	}
}

func backpropReLUDeltaAsm(delta Matrix, w []float64, act, prev Matrix) {
	in, outDim := prev.Cols, delta.Cols
	kernel := backpropRow
	if useAVX512 {
		kernel = backpropRowZ
	}
	for r := 0; r < delta.Rows; r++ {
		kernel(&prev.Data[r*in], &delta.Data[r*outDim], &w[0], &act.Data[r*in], in, outDim, in)
	}
}

// expShiftedSum is SoftmaxInPlace's exponential loop on softmaxExp: x[i] =
// exp(x[i]-shift) and the sum of them in ascending i, with math.Exp on every
// group the vector body hands back. A row runs eight lanes wide only if it
// holds at least two groups of eight: the exponential of one group is a
// latency chain that the sum's serial adds follow, so below that the wider
// body saves nothing (BenchmarkKernels' softmax legs).
func expShiftedSum(x []float64, shift float64) float64 {
	lanes := 4
	if useAVX512 && len(x) >= 16 {
		lanes = 8
	}
	s := 0.0
	for i := 0; i < len(x); {
		var done int
		done, s = softmaxExp(&x[i], len(x)-i, lanes, shift, s)
		i += done
		for end := min(i+lanes, len(x)); i < end; i++ {
			e := math.Exp(x[i] - shift)
			x[i] = e
			s += e
		}
	}
	return s
}
