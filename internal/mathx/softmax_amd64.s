//go:build !purego

// The softmax's exponential and divide on four lanes. A lane is one element
// of the row, computed as SoftmaxInPlace's Go loop computes it.
//
// softmaxExp is math.Exp's FMA branch (exp_amd64.s in Go's math package,
// taken when the CPU has AVX and FMA) on four lanes at once: the same
// instructions in the same order — VFNMADD231PD for the two-part LN2
// reduction, VFMADD213PD for the Taylor steps, VCVTPD2DQ/VCVTDQ2PD for the
// exponent and one multiply by 2^k — with every constant broadcast to all
// four lanes. The reference rounds each of those multiply-adds once, so this
// is the one TEXT block of the package where speclint's kernelorder allows a
// fused instruction, and only those two. The branch is bit-exact only where
// math.Exp itself takes it: kernels_amd64.go runs this body against math.Exp
// at start-up and keeps the Go loop when a word differs (a CPU or a GODEBUG
// without FMA).
//
// A group of four goes to the vector body only if every lane reaches
// exp_amd64.s's lastStep directly: the biased exponent k+0x3FF lies in
// [1, 0x7FE]. That one test excludes every other special case of the
// reference too: NaN and ±Inf convert to the integer indefinite 0x80000000,
// and any x above Overflow to k >= 1024. The body stops at the first group
// that fails it and hands the group back to the caller, which runs scalar
// math.Exp on it (and on the len%4 tail).
//
// The sum is added lane by lane in ascending order into one scalar
// accumulator (VADDSD), as the Go loop adds it; a divide is a divide in any
// width (VDIVPD), so divRow is the Go loop's x[i] /= s word for word.

#include "textflag.h"

// BCAST4 puts v in the four lanes of the 32-byte row at off.
#define BCAST4(off, v) \
	DATA expConst<>+(off)(SB)/8, v; \
	DATA expConst<>+(off+8)(SB)/8, v; \
	DATA expConst<>+(off+16)(SB)/8, v; \
	DATA expConst<>+(off+24)(SB)/8, v

// exp_amd64.s's constants, and its exprodata table from the top coefficient
// down.
BCAST4(0, $1.4426950408889634073599246810018920)          // LOG2E
BCAST4(32, $0.69314718055966295651160180568695068359375)  // LN2U
BCAST4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
BCAST4(96, $0.0625)
BCAST4(128, $2.4801587301587301587e-5)
BCAST4(160, $1.9841269841269841270e-4)
BCAST4(192, $1.3888888888888888889e-3)
BCAST4(224, $8.3333333333333333333e-3)
BCAST4(256, $4.1666666666666666667e-2)
BCAST4(288, $1.6666666666666666667e-1)
BCAST4(320, $0.5)
BCAST4(352, $1.0)
BCAST4(384, $2.0)
// Four int32 lanes each: the exponent bias and the bounds of the biased
// exponent's normal range.
DATA expConst<>+416(SB)/8, $0x000003FF000003FF
DATA expConst<>+424(SB)/8, $0x000003FF000003FF
DATA expConst<>+432(SB)/8, $0x000007FE000007FE
DATA expConst<>+440(SB)/8, $0x000007FE000007FE
DATA expConst<>+448(SB)/8, $0x0000000100000001
DATA expConst<>+456(SB)/8, $0x0000000100000001
GLOBL expConst<>(SB), RODATA|NOPTR, $464

// func softmaxExp(x *float64, n int, shift, sum float64) (done int, total float64)
//
// Registers: SI = x at the next group; CX = elements left; AX = done;
// Y15 = shift; X14 = the sum; Y13 = 2.0; Y12 = 1.0; Y11 = LOG2E; X10, X9, X8
// = 0x3FF, 0x7FE and 1 in each int32 lane. Per group: Y0 = the reduced
// argument, then the result; Y1 = x·LOG2E, then k as a double; X2 = k;
// X3 = k+0x3FF; Y2 = the polynomial; Y4 = 2^k.
TEXT ·softmaxExp(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD shift+16(FP), Y15
	VMOVSD       sum+24(FP), X14
	XORQ         AX, AX
	VMOVUPD      expConst<>+384(SB), Y13
	VMOVUPD      expConst<>+352(SB), Y12
	VMOVUPD      expConst<>+0(SB), Y11
	VMOVDQU      expConst<>+416(SB), X10
	VMOVDQU      expConst<>+432(SB), X9
	VMOVDQU      expConst<>+448(SB), X8
	SUBQ         $4, CX
	JL           expDone

	PCALIGN $32
expLoop:
	VMOVUPD    (SI), Y0
	VSUBPD     Y15, Y0, Y0
	VMULPD     Y11, Y0, Y1
	VCVTPD2DQY Y1, X2
	VPADDD     X10, X2, X3
	VPCMPGTD   X9, X3, X4
	VPCMPGTD   X3, X8, X5
	VPOR       X4, X5, X4
	VPTEST     X4, X4
	JNZ        expDone
	VCVTDQ2PD  X2, Y1

	// x - k·LN2U - k·LN2L, each step one rounding; then /16.
	VFNMADD231PD expConst<>+32(SB), Y1, Y0
	VFNMADD231PD expConst<>+64(SB), Y1, Y0
	VMULPD       expConst<>+96(SB), Y0, Y0

	// Horner's rule, p = p·x + c.
	VMOVUPD     expConst<>+128(SB), Y2
	VFMADD213PD expConst<>+160(SB), Y0, Y2
	VFMADD213PD expConst<>+192(SB), Y0, Y2
	VFMADD213PD expConst<>+224(SB), Y0, Y2
	VFMADD213PD expConst<>+256(SB), Y0, Y2
	VFMADD213PD expConst<>+288(SB), Y0, Y2
	VFMADD213PD expConst<>+320(SB), Y0, Y2
	VFMADD213PD Y12, Y0, Y2

	// y = x·p, then y·(y+2) three times and y·(y+2)+1 once: the sixteenth
	// power of 1+y.
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VFMADD213PD Y12, Y2, Y0

	// times 2^k: the biased exponent shifted into each word's exponent field.
	VPMOVZXDQ X3, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0
	VMOVUPD   Y0, (SI)

	VADDSD       X0, X14, X14
	VPERMILPD    $1, X0, X5
	VADDSD       X5, X14, X14
	VEXTRACTF128 $1, Y0, X6
	VADDSD       X6, X14, X14
	VPERMILPD    $1, X6, X6
	VADDSD       X6, X14, X14

	ADDQ $32, SI
	ADDQ $4, AX
	SUBQ $4, CX
	JGE  expLoop

expDone:
	MOVQ   AX, done+32(FP)
	VMOVSD X14, total+40(FP)
	VZEROUPPER
	RET

// func divRow(x *float64, n int, s float64)
//
// x[i] /= s for i in [0, n): four at a time, then one. n must be positive.
TEXT ·divRow(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD s+16(FP), Y1
	SUBQ         $4, CX
	JL           divTail

divLoop4:
	VMOVUPD (SI), Y0
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	SUBQ    $4, CX
	JGE     divLoop4

divTail:
	ADDQ $4, CX
	JZ   divDone

divLoop1:
	VMOVSD (SI), X0
	VDIVSD X1, X0, X0
	VMOVSD X0, (SI)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    divLoop1

divDone:
	VZEROUPPER
	RET
