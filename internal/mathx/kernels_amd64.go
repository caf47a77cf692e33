package mathx

import (
	"math"
	"unsafe"
)

// useAVX2 selects the assembly bodies of kernels_amd64.s over the Go loops of
// kernels.go. It is probed once; both paths produce the same bits (see the
// contract in kernels.go), so which one runs is a matter of speed only. Tests
// flip it to hold the two against each other.
var useAVX2 = HasAVX2()

// HasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state (CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1-2, CPUID.7:EBX bit 5): whether
// the assembly bodies of this package and of xrand can run. It executes
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
