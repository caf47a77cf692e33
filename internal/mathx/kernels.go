package mathx

import "fmt"

// Batched neural-network kernels over Matrix storage.
//
// # Float-determinism contract
//
// The accumulation order of every kernel in this file is part of its API:
// each output element is produced by one scalar accumulator that consumes
// its contributions in the same order as the per-sample reference loops
// (Dot's ascending-index product sum, sample-ascending gradient
// accumulation, output-ascending delta backpropagation), and zero
// contributions are skipped exactly where the reference skips them.
// Blocking is only applied across independent output elements (e.g. four
// samples sharing one weight-row sweep), never inside one element's sum, so
// results are bit-identical to the scalar loops — the property the
// simulation's worker-count invariance, checkpoint resume, and the metric
// gate (sim.TestExperimentsGolden) all rest on. Any change to these loop orders
// is a numerics change, even if it is algebraically neutral.
//
// Every product that feeds a sum is rounded explicitly, a += float64(x*w):
// the Go spec lets a compiler fuse x*w + a into one multiply-add wherever no
// conversion stands between them, and the arm64 backend does, which would
// move the last bit of every sum on that platform. On amd64 the conversion
// compiles to nothing. The same holds for every deterministic package, and
// CI's "no fused multiply-add on arm64" step builds ./internal/... for arm64
// with -S and fails on any fused instruction. math.Exp (below) and math.Pow
// are then the only platform caveats left.
//
// On amd64 with AVX2, AffineRows, AccumGrads, BackpropReLUDelta and Axpy
// (mathx.go, the SGD update) run assembly bodies (kernels_amd64.s) under the
// same contract — unless the build has the purego tag, which keeps every
// kernel of this package and of xrand on its Go loop — and the Go loops are the portable path and the oracle those
// bodies are diffed against (kernels_amd64_test.go, and nn's differential
// suite once per path). Vector lanes are independent output elements — four
// outputs of one sample, four weight columns of one output, four elements of
// Axpy's y — never four terms of one sum; each lane is still one accumulator
// taking its products in ascending index order; multiply and add stay
// separate instructions, each rounding on its own (no fused multiply-add:
// speclint's kernelorder reads the assembly for one); the bias is added after
// the sum and exact-zero deltas are skipped where they are skipped here.
// Every output word is therefore the same on both paths, and which one a
// process runs (Backend) is a matter of speed only. What is not promised, on
// either path: which NaN comes out. A NaN result is a NaN on both, but its
// sign and payload bits follow the hardware's operand-order rules, which
// differ between scalar and vector code; nothing downstream reads them.
//
// The softmax's exponentials are math.Exp's. On amd64, math.Exp runs a fused
// multiply-add sequence when the CPU has AVX and FMA and a separately rounded
// one when it does not, so softmax bits — and with them every golden that a
// probability or a loss reaches — follow the branch the CPU takes. The
// goldens hold on the FMA branch, the one every box they have been checked on
// takes; a CPU without FMA is unverified. Where math.Exp fuses, SoftmaxInPlace
// runs softmax_amd64.s: that branch on four lanes, instruction for
// instruction, with each lane's result added to one scalar sum in ascending
// order and the divide a VDIVPD. Fused only where the reference fuses: the
// two fused forms math.Exp's branch uses are allowed in that one TEXT block,
// and kernelorder still reports any other fused instruction in this package's
// assembly. The vector body is selected only after a start-up check has run
// it against math.Exp on arguments where the two branches differ
// (kernels_amd64.go), so under GODEBUG=cpu.fma=off, or on a CPU without FMA,
// the Go loop runs and the softmax keeps following math.Exp bit for bit.
//
// One kernel is skipped rather than reordered. A scorer that wants only the
// predicted class (nn's Accuracy family, which is every evaluation inside a
// tip-selection walk) stops at the logits and asks ArgMaxSoftmax (mathx.go),
// which returns exactly what ArgMax after SoftmaxRows would: read off the
// logits when all are finite and the largest leads by at least 1e-9 — the
// softmax then turns it into exp(0) = 1 and everything else into at most
// exp(-1e-9), a gap millions of ulps wider than the rounding of one exp and
// one divide, so the probabilities can neither reorder nor tie — and by
// running the softmax on the row otherwise (ties, leads inside the margin,
// ±Inf, NaN). The shortcut therefore moves no result; whoever consumes
// probabilities or losses (Evaluate, Train) still runs SoftmaxRows.

// AffineRows computes the dense-layer pre-activations for a whole batch:
//
//	out[r][o] = b[o] + sum_i x[r][i] * w[o*x.Cols+i]
//
// w is row-major [len(b)][x.Cols] — the layer's weight matrix. For each
// (r, o) the product sum runs over ascending i into a single accumulator and
// the bias is added after the sum, exactly like b[o] + Dot(wRow, xRow).
// Rows are processed in blocks that share each weight-row sweep (the cache
// win of batching); each row keeps its own accumulator, so blocking does not
// alter any element's accumulation order.
func AffineRows(x Matrix, w, b []float64, out Matrix) {
	affineRows(x, w, b, out, false)
}

// AffineRowsReLU is AffineRows with the ReLU clamp fused into the output
// write: out[r][o] = max(0, b[o] + sum). Bit-identical to AffineRows
// followed by ReLURows, one pass over out cheaper.
func AffineRowsReLU(x Matrix, w, b []float64, out Matrix) {
	affineRows(x, w, b, out, true)
}

func affineRows(x Matrix, w, b []float64, out Matrix, relu bool) {
	in, outDim := x.Cols, len(b)
	if len(w) != in*outDim {
		panic(fmt.Sprintf("mathx: AffineRows weights %d, want %dx%d", len(w), outDim, in))
	}
	if out.Rows != x.Rows || out.Cols != outDim {
		panic(fmt.Sprintf("mathx: AffineRows out %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows, outDim))
	}
	if useAVX2 {
		affineRowsAVX2(x, w, b, out, relu)
		return
	}
	r := 0
	// Eight samples per weight-row sweep: each output element keeps its own
	// serial accumulator (the order contract), and eight independent add
	// chains are enough to hide scalar FP-add latency on current cores.
	for ; r+8 <= x.Rows; r += 8 {
		x0, x1, x2, x3 := x.Row(r)[:in], x.Row(r + 1)[:in], x.Row(r + 2)[:in], x.Row(r + 3)[:in]
		x4, x5, x6, x7 := x.Row(r + 4)[:in], x.Row(r + 5)[:in], x.Row(r + 6)[:in], x.Row(r + 7)[:in]
		o0, o1, o2, o3 := out.Row(r)[:outDim], out.Row(r + 1)[:outDim], out.Row(r + 2)[:outDim], out.Row(r + 3)[:outDim]
		o4, o5, o6, o7 := out.Row(r + 4)[:outDim], out.Row(r + 5)[:outDim], out.Row(r + 6)[:outDim], out.Row(r + 7)[:outDim]
		for o := 0; o < outDim; o++ {
			row := w[o*in : o*in+in]
			x0, x1, x2, x3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
			x4, x5, x6, x7 := x4[:len(row)], x5[:len(row)], x6[:len(row)], x7[:len(row)]
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for i, wv := range row {
				a0 += float64(x0[i] * wv)
				a1 += float64(x1[i] * wv)
				a2 += float64(x2[i] * wv)
				a3 += float64(x3[i] * wv)
				a4 += float64(x4[i] * wv)
				a5 += float64(x5[i] * wv)
				a6 += float64(x6[i] * wv)
				a7 += float64(x7[i] * wv)
			}
			bo := b[o]
			a0, a1, a2, a3 = bo+a0, bo+a1, bo+a2, bo+a3
			a4, a5, a6, a7 = bo+a4, bo+a5, bo+a6, bo+a7
			if relu {
				a0, a1, a2, a3 = clamp0(a0), clamp0(a1), clamp0(a2), clamp0(a3)
				a4, a5, a6, a7 = clamp0(a4), clamp0(a5), clamp0(a6), clamp0(a7)
			}
			o0[o], o1[o], o2[o], o3[o] = a0, a1, a2, a3
			o4[o], o5[o], o6[o], o7[o] = a4, a5, a6, a7
		}
	}
	for ; r+4 <= x.Rows; r += 4 {
		// The [:in] re-slices pin every row's length to the loop bound so
		// the compiler drops the per-element bounds checks.
		x0, x1, x2, x3 := x.Row(r)[:in], x.Row(r + 1)[:in], x.Row(r + 2)[:in], x.Row(r + 3)[:in]
		o0, o1, o2, o3 := out.Row(r)[:outDim], out.Row(r + 1)[:outDim], out.Row(r + 2)[:outDim], out.Row(r + 3)[:outDim]
		for o := 0; o < outDim; o++ {
			row := w[o*in : o*in+in]
			x0, x1, x2, x3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
			var a0, a1, a2, a3 float64
			for i, wv := range row {
				a0 += float64(x0[i] * wv)
				a1 += float64(x1[i] * wv)
				a2 += float64(x2[i] * wv)
				a3 += float64(x3[i] * wv)
			}
			bo := b[o]
			a0, a1, a2, a3 = bo+a0, bo+a1, bo+a2, bo+a3
			if relu {
				a0, a1, a2, a3 = clamp0(a0), clamp0(a1), clamp0(a2), clamp0(a3)
			}
			o0[o], o1[o], o2[o], o3[o] = a0, a1, a2, a3
		}
	}
	// Remainder rows: a single row is one serial add chain per output, so
	// block over four outputs instead — four independent accumulators keep
	// the FP units busy while each element's sum order stays Dot's.
	for ; r < x.Rows; r++ {
		xr, or := x.Row(r)[:in], out.Row(r)[:outDim]
		o := 0
		for ; o+4 <= outDim; o += 4 {
			w0 := w[o*in : o*in+in]
			w1, w2, w3 := w[(o+1)*in:(o+2)*in], w[(o+2)*in:(o+3)*in], w[(o+3)*in:(o+4)*in]
			w1, w2, w3 = w1[:len(w0)], w2[:len(w0)], w3[:len(w0)]
			xr := xr[:len(w0)]
			var a0, a1, a2, a3 float64
			for i, xv := range xr {
				a0 += float64(xv * w0[i])
				a1 += float64(xv * w1[i])
				a2 += float64(xv * w2[i])
				a3 += float64(xv * w3[i])
			}
			a0, a1, a2, a3 = b[o]+a0, b[o+1]+a1, b[o+2]+a2, b[o+3]+a3
			if relu {
				a0, a1, a2, a3 = clamp0(a0), clamp0(a1), clamp0(a2), clamp0(a3)
			}
			or[o], or[o+1], or[o+2], or[o+3] = a0, a1, a2, a3
		}
		for ; o < outDim; o++ {
			row := w[o*in : o*in+in]
			xr := xr[:len(row)]
			var acc float64
			for i, wv := range row {
				acc += float64(xr[i] * wv)
			}
			acc = b[o] + acc
			if relu {
				acc = clamp0(acc)
			}
			or[o] = acc
		}
	}
}

// clamp0 is the ReLU: negatives become zero, exactly like the scalar
// forward pass's `if v < 0 { v = 0 }`.
func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// ReLURows clamps negative entries of m to zero in place, matching the
// per-element `if v < 0 { v = 0 }` of the scalar forward pass.
func ReLURows(m Matrix) {
	data := m.Data[:m.Rows*m.Cols]
	for i, v := range data {
		if v < 0 {
			data[i] = 0
		}
	}
}

// SoftmaxRows applies SoftmaxInPlace to every row of m — the batched softmax
// head. Each row goes through the identical stable shifted-exponent code
// path as the per-sample loop.
func SoftmaxRows(m Matrix) {
	for r := 0; r < m.Rows; r++ {
		SoftmaxInPlace(m.Row(r))
	}
}

// SoftmaxCEDelta fills delta with the softmax-cross-entropy output error for
// a whole batch: delta[r] = probs[r] - onehot(ys[r]). Labels must be in
// range; callers validate them (with their own diagnostics) first.
func SoftmaxCEDelta(probs Matrix, ys []int, delta Matrix) {
	if probs.Rows != len(ys) || delta.Rows != probs.Rows || delta.Cols != probs.Cols {
		panic(fmt.Sprintf("mathx: SoftmaxCEDelta probs %dx%d, delta %dx%d, %d labels",
			probs.Rows, probs.Cols, delta.Rows, delta.Cols, len(ys)))
	}
	for r, y := range ys {
		dr := delta.Row(r)
		copy(dr, probs.Row(r))
		dr[y]--
	}
}

// AccumGrads accumulates a batch's dense-layer gradient into wg (row-major
// [delta.Cols][act.Cols]) and bg (len delta.Cols):
//
//	wg[o][i] += sum_r delta[r][o] * act[r][i]
//	bg[o]    += sum_r delta[r][o]
//
// For every destination element the contributions are applied in ascending
// sample order r, and samples with delta[r][o] == 0 are skipped — exactly
// the order and sparsity of the per-sample reference loop, so the
// accumulated gradient is bit-identical to running backward sample by
// sample.
func AccumGrads(delta, act Matrix, wg, bg []float64) {
	in, outDim := act.Cols, delta.Cols
	if delta.Rows != act.Rows {
		panic(fmt.Sprintf("mathx: AccumGrads delta has %d rows, act %d", delta.Rows, act.Rows))
	}
	if len(wg) != in*outDim || len(bg) != outDim {
		panic(fmt.Sprintf("mathx: AccumGrads wg %d, bg %d, want %dx%d and %d", len(wg), len(bg), outDim, in, outDim))
	}
	if useAVX2 && in > 0 && delta.Rows > 0 {
		accumGradsAVX2(delta, act, wg, bg)
		return
	}
	rows := delta.Rows
	dd := delta.Data
	for o := 0; o < outDim; o++ {
		wrow := wg[o*in : o*in+in]
		r := 0
		// Four samples per weight-row sweep: one pass over wrow applies the
		// four contributions as consecutive scalar adds — the same ordered
		// sequence the per-sample loop produces, at a quarter of the wg
		// memory traffic. Any exact-zero delta falls back to the per-sample
		// loop so the reference's skip is reproduced faithfully.
		for ; r+4 <= rows; r += 4 {
			d0, d1, d2, d3 := dd[r*outDim+o], dd[(r+1)*outDim+o], dd[(r+2)*outDim+o], dd[(r+3)*outDim+o]
			if d0 != 0 && d1 != 0 && d2 != 0 && d3 != 0 {
				bo := bg[o]
				bo += d0
				bo += d1
				bo += d2
				bo += d3
				bg[o] = bo
				a0 := act.Row(r)[:len(wrow)]
				a1 := act.Row(r + 1)[:len(wrow)]
				a2 := act.Row(r + 2)[:len(wrow)]
				a3 := act.Row(r + 3)[:len(wrow)]
				for i := range wrow {
					t := wrow[i]
					t += float64(d0 * a0[i])
					t += float64(d1 * a1[i])
					t += float64(d2 * a2[i])
					t += float64(d3 * a3[i])
					wrow[i] = t
				}
				continue
			}
			for k := 0; k < 4; k++ {
				accumGradRow(dd[(r+k)*outDim+o], act.Row(r+k), wrow, bg, o)
			}
		}
		for ; r < rows; r++ {
			accumGradRow(dd[r*outDim+o], act.Row(r), wrow, bg, o)
		}
	}
}

// accumGradRow applies one sample's contribution to a weight row and its
// bias gradient, skipping exact zeros like the per-sample reference.
func accumGradRow(d float64, actRow, wrow []float64, bg []float64, o int) {
	if d == 0 {
		return
	}
	bg[o] += d
	actRow = actRow[:len(wrow)]
	for i, av := range actRow {
		wrow[i] += float64(d * av)
	}
}

// BackpropReLUDelta propagates a batch's error terms through a dense layer
// and its ReLU: for every row r,
//
//	prev[r][i] = sum_o delta[r][o] * w[o*prev.Cols+i]   (ascending o,
//	                                                     delta == 0 skipped)
//
// then prev[r][i] is zeroed wherever the forward activation act[r][i] <= 0
// (the ReLU derivative). Identical, element for element, to the per-sample
// reference loop.
func BackpropReLUDelta(delta Matrix, w []float64, act, prev Matrix) {
	in, outDim := prev.Cols, delta.Cols
	if len(w) != in*outDim {
		panic(fmt.Sprintf("mathx: BackpropReLUDelta weights %d, want %dx%d", len(w), outDim, in))
	}
	if act.Rows != delta.Rows || prev.Rows != delta.Rows || act.Cols != in {
		panic(fmt.Sprintf("mathx: BackpropReLUDelta delta %dx%d, act %dx%d, prev %dx%d",
			delta.Rows, delta.Cols, act.Rows, act.Cols, prev.Rows, prev.Cols))
	}
	if useAVX2 && in > 0 && outDim > 0 {
		backpropReLUDeltaAVX2(delta, w, act, prev)
		return
	}
	for r := 0; r < delta.Rows; r++ {
		pr := prev.Row(r)[:in]
		Fill(pr, 0)
		for o, d := range delta.Row(r) {
			if d == 0 {
				continue
			}
			wrow := w[o*in : o*in+in]
			pr := pr[:len(wrow)]
			for i, wv := range wrow {
				pr[i] += float64(d * wv)
			}
		}
		ar := act.Row(r)[:in]
		for i, v := range ar {
			if v <= 0 {
				pr[i] = 0
			}
		}
	}
}
