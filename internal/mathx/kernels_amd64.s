//go:build !purego

// AVX2 bodies of AffineRows, AccumGrads, BackpropReLUDelta and Axpy. The contract
// is the one in kernels.go, word for word: a vector lane is one independent
// output element with one serial accumulator, products are consumed in
// ascending index order, every multiply (VMULPD) is rounded before its add
// (VADDPD) — no fused instruction anywhere, speclint's kernelorder scans this
// file — and the bias is added after the sum. Exact-zero deltas are skipped
// here (UCOMISD: equal and ordered) exactly where the Go kernels skip them.
//
// R14, R15 and BP are left alone; every routine ends in VZEROUPPER.

#include "textflag.h"

// laneMask<> + (4-n)*8 is the VMASKMOVPD mask selecting the first n lanes.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// ---------------------------------------------------------------------------
// Forward: out[r][o] = max(floor, b[o] + sum_i x[r][i]*w[o][i]).
//
// A tile is R rows × 4 outputs: lane k of accumulator r is out[r][o+k]. Per
// input index i the four weights w[o..o+3][i] are gathered into Y8 (the
// in-register transpose of the row-major weights), each row's x[r][i] is
// broadcast, multiplied, and added to that row's accumulator. Outputs past
// outDim in the last group repeat the last weight row and are masked out of
// the store. floor is +0 for the ReLU and -Inf for none: VMAXPD with the value
// as its second source returns the value on NaN, on -0 against +0, and
// whenever floor is not greater — clamp0, bit for bit.
//
// Registers: SI, DI = x rows 0 and 4 at index i; DX = row stride of x and w
// in bytes; BX = 3·DX; R8..R11 = ends of the group's weight rows, indexed by
// CX counting up from 2-in; R12, R13 = out and b at the group; AX = outputs
// left.

#define WVEC(d) \
	VMOVSD      d(R8)(CX*8), X8; \
	VMOVHPD     d(R9)(CX*8), X8, X8; \
	VMOVSD      d(R10)(CX*8), X9; \
	VMOVHPD     d(R11)(CX*8), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8

#define MAC(src, tmp, acc) \
	VBROADCASTSD src, tmp; \
	VMULPD       Y8, tmp, tmp; \
	VADDPD       tmp, acc, acc

#define GROUPROWS \
	MOVQ    R11, R8; \
	LEAQ    (R8)(DX*1), R9; \
	CMPQ    AX, $2; \
	CMOVQLT R8, R9; \
	LEAQ    (R9)(DX*1), R10; \
	CMPQ    AX, $3; \
	CMOVQLT R9, R10; \
	LEAQ    (R10)(DX*1), R11; \
	CMPQ    AX, $4; \
	CMOVQLT R10, R11

// PUT adds the bias (Y14), applies the floor (Y15) and stores one row's four
// outputs at R8, stepping R8 by the out stride in CX.
#define PUT(acc) \
	VADDPD  acc, Y14, acc; \
	VMAXPD  acc, Y15, acc; \
	VMOVUPD acc, (R8); \
	ADDQ    CX, R8

#define PUTMASKED(acc) \
	VADDPD     acc, Y14, acc; \
	VMAXPD     acc, Y15, acc; \
	VMASKMOVPD acc, Y13, (R8); \
	ADDQ       CX, R8

#define PARTIALGROUP \
	LEAQ       laneMask<>(SB), R9; \
	MOVQ       $4, R10; \
	SUBQ       AX, R10; \
	VMOVDQU    (R9)(R10*8), Y13; \
	VMASKMOVPD (R13), Y13, Y14

#define MAC8(d) \
	MAC(d(SI), Y10, Y0); \
	MAC(d(SI)(DX*1), Y11, Y1); \
	MAC(d(SI)(DX*2), Y10, Y2); \
	MAC(d(SI)(BX*1), Y11, Y3); \
	MAC(d(DI), Y10, Y4); \
	MAC(d(DI)(DX*1), Y11, Y5); \
	MAC(d(DI)(DX*2), Y10, Y6); \
	MAC(d(DI)(BX*1), Y11, Y7)

#define MAC4(d) \
	MAC(d(SI), Y10, Y0); \
	MAC(d(SI)(DX*1), Y11, Y1); \
	MAC(d(SI)(DX*2), Y10, Y2); \
	MAC(d(SI)(BX*1), Y11, Y3)

// func affineTile8(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile8(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         in+32(FP), DX
	SHLQ         $3, DX
	LEAQ         (DX)(DX*2), BX
	LEAQ         (SI)(DX*4), DI
	MOVQ         w+8(FP), R11
	ADDQ         DX, R11
	MOVQ         b+16(FP), R13
	MOVQ         out+24(FP), R12
	MOVQ         outDim+40(FP), AX
	VBROADCASTSD floor+48(FP), Y15

group8:
	GROUPROWS
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   in+32(FP), CX
	NEGQ   CX
	ADDQ   $2, CX
	JG     tail8

	PCALIGN $32
loop8:
	WVEC(-16)
	MAC8(0)
	WVEC(-8)
	MAC8(8)
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $2, CX
	JLE  loop8

tail8:
	CMPQ CX, $1
	JNE  sum8
	WVEC(-16)
	MAC8(0)
	ADDQ $8, SI
	ADDQ $8, DI

sum8:
	SUBQ DX, SI
	SUBQ DX, DI
	MOVQ outDim+40(FP), CX
	SHLQ $3, CX
	MOVQ R12, R8
	CMPQ AX, $4
	JLT  partial8
	VMOVUPD (R13), Y14
	PUT(Y0)
	PUT(Y1)
	PUT(Y2)
	PUT(Y3)
	PUT(Y4)
	PUT(Y5)
	PUT(Y6)
	PUT(Y7)
	ADDQ DX, R11
	ADDQ $32, R12
	ADDQ $32, R13
	SUBQ $4, AX
	JG   group8
	VZEROUPPER
	RET

partial8:
	PARTIALGROUP
	PUTMASKED(Y0)
	PUTMASKED(Y1)
	PUTMASKED(Y2)
	PUTMASKED(Y3)
	PUTMASKED(Y4)
	PUTMASKED(Y5)
	PUTMASKED(Y6)
	PUTMASKED(Y7)
	VZEROUPPER
	RET

// func affineTile4(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile4(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         in+32(FP), DX
	SHLQ         $3, DX
	LEAQ         (DX)(DX*2), BX
	MOVQ         w+8(FP), R11
	ADDQ         DX, R11
	MOVQ         b+16(FP), R13
	MOVQ         out+24(FP), R12
	MOVQ         outDim+40(FP), AX
	VBROADCASTSD floor+48(FP), Y15

group4:
	GROUPROWS
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   in+32(FP), CX
	NEGQ   CX
	ADDQ   $2, CX
	JG     tail4

	PCALIGN $32
loop4:
	WVEC(-16)
	MAC4(0)
	WVEC(-8)
	MAC4(8)
	ADDQ $16, SI
	ADDQ $2, CX
	JLE  loop4

tail4:
	CMPQ CX, $1
	JNE  sum4
	WVEC(-16)
	MAC4(0)
	ADDQ $8, SI

sum4:
	SUBQ DX, SI
	MOVQ outDim+40(FP), CX
	SHLQ $3, CX
	MOVQ R12, R8
	CMPQ AX, $4
	JLT  partial4
	VMOVUPD (R13), Y14
	PUT(Y0)
	PUT(Y1)
	PUT(Y2)
	PUT(Y3)
	ADDQ DX, R11
	ADDQ $32, R12
	ADDQ $32, R13
	SUBQ $4, AX
	JG   group4
	VZEROUPPER
	RET

partial4:
	PARTIALGROUP
	PUTMASKED(Y0)
	PUTMASKED(Y1)
	PUTMASKED(Y2)
	PUTMASKED(Y3)
	VZEROUPPER
	RET

// func affineTile1(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile1(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         in+32(FP), DX
	SHLQ         $3, DX
	MOVQ         w+8(FP), R11
	ADDQ         DX, R11
	MOVQ         b+16(FP), R13
	MOVQ         out+24(FP), R12
	MOVQ         outDim+40(FP), AX
	VBROADCASTSD floor+48(FP), Y15

group1:
	GROUPROWS
	VXORPD Y0, Y0, Y0
	MOVQ   in+32(FP), CX
	NEGQ   CX
	ADDQ   $2, CX
	JG     tail1

	PCALIGN $32
loop1:
	WVEC(-16)
	MAC((SI), Y10, Y0)
	WVEC(-8)
	MAC(8(SI), Y11, Y0)
	ADDQ $16, SI
	ADDQ $2, CX
	JLE  loop1

tail1:
	CMPQ CX, $1
	JNE  sum1
	WVEC(-16)
	MAC((SI), Y10, Y0)
	ADDQ $8, SI

sum1:
	SUBQ DX, SI
	CMPQ AX, $4
	JLT  partial1
	VADDPD  (R13), Y0, Y0
	VMAXPD  Y0, Y15, Y0
	VMOVUPD Y0, (R12)
	ADDQ DX, R11
	ADDQ $32, R12
	ADDQ $32, R13
	SUBQ $4, AX
	JG   group1
	VZEROUPPER
	RET

partial1:
	PARTIALGROUP
	VADDPD     Y0, Y14, Y0
	VMAXPD     Y0, Y15, Y0
	VMASKMOVPD Y0, Y13, (R12)
	VZEROUPPER
	RET


// ---------------------------------------------------------------------------
// Backward: both kernels are dst[c] (+)= sum_j s[j]*m[j][c] over ascending j
// with exact-zero s[j] skipped — AccumGrads per output o (dst = wg[o], s =
// delta's column o, m = act, j = sample) and BackpropReLUDelta per sample r
// (dst = prev[r] from zero, s = delta[r], m = w, j = output). A lane is one
// column c; a pass keeps up to 32 columns in Y0..Y7 across the whole j loop,
// so dst is read and written once.
//
// Registers: BX = dst, R10 = m, R11 = act (backprop) at the pass's first
// column; AX = columns left; DX = s, R12 = k; SI, DI = s[j] and m[j] at that
// column, stepped by R8 and R9 bytes; CX = j's left; Y12 = s[j] in every lane, X14 = the bias
// sum, Y15 = 0.

#define MAD(off, acc) \
	VMULPD off(DI), Y12, Y13; \
	VADDPD Y13, acc, acc

#define MAD8 \
	MAD(0, Y0); \
	MAD(32, Y1); \
	MAD(64, Y2); \
	MAD(96, Y3); \
	MAD(128, Y4); \
	MAD(160, Y5); \
	MAD(192, Y6); \
	MAD(224, Y7)

#define MAD4 \
	MAD(0, Y0); \
	MAD(32, Y1); \
	MAD(64, Y2); \
	MAD(96, Y3)

#define MAD2 \
	MAD(0, Y0); \
	MAD(32, Y1)

#define MAD1 MAD(0, Y0)

// MADTAIL is MAD1 for the last 1..3 columns: lanes past the end (mask Y11)
// load as zero and are never stored.
#define MADTAIL \
	VMASKMOVPD (DI), Y11, Y13; \
	VMULPD     Y13, Y12, Y13; \
	VADDPD     Y13, Y0, Y0

// JLOOP runs one pass's j loop. s[j] == 0 (equal and ordered: NaN is not
// zero) skips the sample as the Go kernels do; BIAS is AccumGrads' bg[o] += d,
// riding along in every pass and stored by the first.
#define JLOOP(loop, mac, next, MADS, BIAS) \
	MOVQ DX, SI; \
	MOVQ R10, DI; \
	MOVQ R12, CX; \
	PCALIGN $32; \
loop: \
	VMOVSD   (SI), X12; \
	VUCOMISD X15, X12; \
	JNE      mac; \
	JNP      next; \
mac: \
	BIAS; \
	VBROADCASTSD X12, Y12; \
	MADS; \
next: \
	ADDQ R8, SI; \
	ADDQ R9, DI; \
	DECQ CX; \
	JNZ  loop

#define ADDBIAS VADDSD X12, X14, X14
#define NOBIAS

// PUTBIAS stores the bias sum once: R13 is bg[o]'s address until the first
// pass has stored it, then nil.
#define PUTBIAS(done) \
	TESTQ  R13, R13; \
	JZ     done; \
	VMOVSD X14, (R13); \
	XORQ   R13, R13; \
done:

#define STEP(cols) \
	ADDQ $(8*cols), BX; \
	ADDQ $(8*cols), R10; \
	SUBQ $cols, AX

#define TAILMASK \
	LEAQ    laneMask<>(SB), SI; \
	MOVQ    $4, CX; \
	SUBQ    AX, CX; \
	VMOVDQU (SI)(CX*8), Y11

// func accumCols(dst, s, m, bias *float64, n, k, sStride, mStride int)
TEXT ·accumCols(SB), NOSPLIT, $0-64
	MOVQ   dst+0(FP), BX
	MOVQ   s+8(FP), DX
	MOVQ   m+16(FP), R10
	MOVQ   k+40(FP), R12
	MOVQ   bias+24(FP), R13
	MOVQ   n+32(FP), AX
	MOVQ   sStride+48(FP), R8
	SHLQ   $3, R8
	MOVQ   mStride+56(FP), R9
	SHLQ   $3, R9
	VXORPD Y15, Y15, Y15
	VMOVSD (R13), X14

acc32:
	CMPQ AX, $32
	JLT  acc16
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	JLOOP(accLoop32, accMac32, accNext32, MAD8, ADDBIAS)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	PUTBIAS(accBias32)
	STEP(32)
	JMP acc32

acc16:
	CMPQ AX, $16
	JLT  acc8
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	JLOOP(accLoop16, accMac16, accNext16, MAD4, ADDBIAS)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	PUTBIAS(accBias16)
	STEP(16)

acc8:
	CMPQ AX, $8
	JLT  acc4
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	JLOOP(accLoop8, accMac8, accNext8, MAD2, ADDBIAS)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	PUTBIAS(accBias8)
	STEP(8)

acc4:
	CMPQ AX, $4
	JLT  accTail
	VMOVUPD 0(BX), Y0
	JLOOP(accLoop4, accMac4, accNext4, MAD1, ADDBIAS)
	VMOVUPD Y0, 0(BX)
	PUTBIAS(accBias4)
	STEP(4)

accTail:
	TESTQ AX, AX
	JZ    accDone
	TAILMASK
	VMASKMOVPD (BX), Y11, Y0
	JLOOP(accLoopT, accMacT, accNextT, MADTAIL, ADDBIAS)
	VMASKMOVPD Y0, Y11, (BX)
	PUTBIAS(accBiasT)

accDone:
	VZEROUPPER
	RET

// RELU zeroes the lanes of acc whose forward activation is <= 0 (NaN is
// not): 0 >= act, ordered, then acc &^= mask.
#define RELU(off, acc) \
	VCMPPD  $0x0d, off(R11), Y15, Y13; \
	VANDNPD acc, Y13, acc

// func backpropRow(dst, s, m, act *float64, n, k, mStride int)
TEXT ·backpropRow(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), BX
	MOVQ   s+8(FP), DX
	MOVQ   m+16(FP), R10
	MOVQ   k+40(FP), R12
	MOVQ   act+24(FP), R11
	MOVQ   n+32(FP), AX
	MOVQ   $8, R8
	MOVQ   mStride+48(FP), R9
	SHLQ   $3, R9
	VXORPD Y15, Y15, Y15

bp32:
	CMPQ AX, $32
	JLT  bp16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JLOOP(bpLoop32, bpMac32, bpNext32, MAD8, NOBIAS)
	RELU(0, Y0)
	RELU(32, Y1)
	RELU(64, Y2)
	RELU(96, Y3)
	RELU(128, Y4)
	RELU(160, Y5)
	RELU(192, Y6)
	RELU(224, Y7)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	ADDQ $256, R11
	STEP(32)
	JMP bp32

bp16:
	CMPQ AX, $16
	JLT  bp8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JLOOP(bpLoop16, bpMac16, bpNext16, MAD4, NOBIAS)
	RELU(0, Y0)
	RELU(32, Y1)
	RELU(64, Y2)
	RELU(96, Y3)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ $128, R11
	STEP(16)

bp8:
	CMPQ AX, $8
	JLT  bp4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JLOOP(bpLoop8, bpMac8, bpNext8, MAD2, NOBIAS)
	RELU(0, Y0)
	RELU(32, Y1)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	ADDQ $64, R11
	STEP(8)

bp4:
	CMPQ AX, $4
	JLT  bpTail
	VXORPD Y0, Y0, Y0
	JLOOP(bpLoop4, bpMac4, bpNext4, MAD1, NOBIAS)
	RELU(0, Y0)
	VMOVUPD Y0, 0(BX)
	ADDQ $32, R11
	STEP(4)

bpTail:
	TESTQ AX, AX
	JZ    bpDone
	TAILMASK
	VXORPD     Y0, Y0, Y0
	JLOOP(bpLoopT, bpMacT, bpNextT, MADTAIL, NOBIAS)
	VMASKMOVPD (R11), Y11, Y12
	VCMPPD     $0x0d, Y12, Y15, Y13
	VANDNPD    Y0, Y13, Y0
	VMASKMOVPD Y0, Y11, (BX)

bpDone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Axpy: y[i] += alpha*x[i]. A lane is one element: the product is rounded
// (VMULPD) before it is added (VADDPD), as in the Go loop. Sixteen elements
// a pass, then four, then one at a time (VMULSD, VADDSD).
//
// Registers: SI, DI = x and y at the next element; CX = elements left,
// less the pass width while a pass is running; Y15 = alpha in every lane.

// func axpy(alpha float64, x, y *float64, n int)
TEXT ·axpy(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	SUBQ         $16, CX
	JL           axpy4

	PCALIGN $32
axpyLoop16:
	VMULPD  0(SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMULPD  64(SI), Y15, Y2
	VMULPD  96(SI), Y15, Y3
	VADDPD  0(DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JGE     axpyLoop16

axpy4:
	ADDQ $12, CX
	JL   axpyTail

axpyLoop4:
	VMULPD  (SI), Y15, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     axpyLoop4

axpyTail:
	ADDQ $4, CX
	JZ   axpyDone

axpyLoop1:
	VMULSD (SI), X15, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpyLoop1

axpyDone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
