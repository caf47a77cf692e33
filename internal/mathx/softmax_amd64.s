//go:build !purego

// The softmax's exponential on four or eight lanes and its divide on four. A
// lane is one element of the row, computed as SoftmaxInPlace's Go loop
// computes it.
//
// softmaxExp is math.Exp's FMA branch (exp_amd64.s in Go's math package,
// taken when the CPU has AVX and FMA) on four lanes at once, or on eight with
// AVX-512: the same instructions in the same order — VFNMADD231PD for the
// two-part LN2 reduction, VFMADD213PD for the Taylor steps, VCVTPD2DQ/
// VCVTDQ2PD for the exponent and one multiply by 2^k — with every constant
// broadcast to all lanes. The reference rounds each of those multiply-adds
// once, so this is the one TEXT block of the package where speclint's
// kernelorder allows a fused instruction, and only those two; kernelorder
// judges a macro where it is defined, so both widths spell theirs out here.
// The branch is bit-exact only where math.Exp itself takes it:
// kernels_amd64.go runs this body against math.Exp at start-up and keeps the
// Go loop when a word differs (a CPU or a GODEBUG without FMA).
//
// A group goes to the vector body only if every active lane reaches
// exp_amd64.s's lastStep directly: the biased exponent k+0x3FF lies in
// [1, 0x7FE]. That one test excludes every other special case of the
// reference too: NaN and ±Inf convert to the integer indefinite 0x80000000,
// and any x above Overflow to k >= 1024. The body stops at the first group
// that fails it and hands the group back to the caller, which runs scalar
// math.Exp on it.
//
// The sum is added lane by lane in ascending order into one scalar
// accumulator (VADDSD), as the Go loop adds it; a divide is a divide in any
// width (VDIVPD), so divRow is the Go loop's x[i] /= s word for word. It
// stays four lanes wide: a 512-bit divide retires no more elements per cycle
// here, and a masked tail would cost a whole one.

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

// expMask<> + (3-n)*8 is the VMASKMOVPD mask selecting the first n (1-3)
// lanes.
DATA expMask<>+0(SB)/8, $-1
DATA expMask<>+8(SB)/8, $-1
DATA expMask<>+16(SB)/8, $-1
DATA expMask<>+24(SB)/8, $0
DATA expMask<>+32(SB)/8, $0
DATA expMask<>+40(SB)/8, $0
GLOBL expMask<>(SB), RODATA|NOPTR, $48

// func softmaxExp(x *float64, n, lanes int, shift, sum float64) (done int, total float64)
//
// Groups of four lanes (of eight where lanes is 8) from x's start; the last
// group, of fewer lanes, runs masked: its lanes past n are not loaded (they
// take the shift, whose exponential is exp(0) and always normal), not stored
// and not summed. Its lanes are stored one at a time beside their adds, so
// divRow's loads that follow forward from plain stores. A group with an active lane outside the normal range ends
// the call: done is where it starts. Each width's exponential is written
// once, shared by full groups and the masked last one.
//
// After the range test each group computes x - k·LN2U - k·LN2L, each step
// one rounding, then /16; Horner's rule, p = p·x + c; y = x·p, then y·(y+2)
// three times and y·(y+2)+1 once, the sixteenth power of 1+y; times 2^k,
// the biased exponent shifted into each word's exponent field. The eight-lane
// body broadcasts each constant from the table's first lane.
//
// Registers: SI = x at the next group; CX = elements left; AX = done;
// Y15/Z15 = shift; X14 = the sum; Y13/Z13 = 2.0; Y12/Z12 = 1.0; Y11/Z11 =
// LOG2E; X10, X9, X8 (Y10, Y9, Y8) = 0x3FF, 0x7FE and 1 in each int32 lane;
// Y7 or K1 = the last group's load mask. Per group: Y0/Z0 = the reduced argument,
// then the result; Y1/Z1 = x·LOG2E, then k as a double; X2/Y2 = k; X3/Y3 =
// k+0x3FF; Y2/Z2 = the polynomial; Y4/Z4 = 2^k.
TEXT ·softmaxExp(SB), NOSPLIT, $0-56
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VMOVSD sum+32(FP), X14
	XORQ   AX, AX
	CMPQ   lanes+16(FP), $8
	JEQ    exp8

	VBROADCASTSD shift+24(FP), Y15
	VMOVUPD      expConst<>+384(SB), Y13
	VMOVUPD      expConst<>+352(SB), Y12
	VMOVUPD      expConst<>+0(SB), Y11
	VMOVDQU      expConst<>+416(SB), X10
	VMOVDQU      expConst<>+432(SB), X9
	VMOVDQU      expConst<>+448(SB), X8

	PCALIGN $32
exp4Loop:
	CMPQ    CX, $4
	JLT     exp4Part
	VMOVUPD (SI), Y0
	JMP     exp4Body

exp4Part:
	LEAQ       expMask<>+24(SB), DX
	MOVQ       CX, R8
	SHLQ       $3, R8
	SUBQ       R8, DX
	VMOVDQU    (DX), Y7
	VMASKMOVPD (SI), Y7, Y0
	VBLENDVPD  Y7, Y0, Y15, Y0

exp4Body:
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

	VFNMADD231PD expConst<>+32(SB), Y1, Y0
	VFNMADD231PD expConst<>+64(SB), Y1, Y0
	VMULPD       expConst<>+96(SB), Y0, Y0

	VMOVUPD     expConst<>+128(SB), Y2
	VFMADD213PD expConst<>+160(SB), Y0, Y2
	VFMADD213PD expConst<>+192(SB), Y0, Y2
	VFMADD213PD expConst<>+224(SB), Y0, Y2
	VFMADD213PD expConst<>+256(SB), Y0, Y2
	VFMADD213PD expConst<>+288(SB), Y0, Y2
	VFMADD213PD expConst<>+320(SB), Y0, Y2
	VFMADD213PD Y12, Y0, Y2

	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y13, Y0, Y2
	VFMADD213PD Y12, Y2, Y0

	VPMOVZXDQ X3, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0

	CMPQ    CX, $4
	JLT     exp4PartSum
	VMOVUPD Y0, (SI)

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
	JNZ  exp4Loop
	JMP  expDone

exp4PartSum:
	ADDQ CX, AX

exp4PartLoop:
	VMOVSD  X0, (SI)
	VADDSD  X0, X14, X14
	ADDQ    $8, SI
	VPERMPD $0x39, Y0, Y0
	DECQ    CX
	JNZ     exp4PartLoop
	JMP     expDone

exp8:
	VBROADCASTSD shift+24(FP), Z15
	VBROADCASTSD expConst<>+384(SB), Z13
	VBROADCASTSD expConst<>+352(SB), Z12
	VBROADCASTSD expConst<>+0(SB), Z11
	VPBROADCASTD expConst<>+416(SB), Y10
	VPBROADCASTD expConst<>+432(SB), Y9
	VPBROADCASTD expConst<>+448(SB), Y8

	PCALIGN $32
exp8Loop:
	CMPQ    CX, $8
	JLT     exp8Part
	VMOVUPD (SI), Z0
	JMP     exp8Body

exp8Part:
	MOVL    $1, R8
	SHLL    CX, R8
	DECL    R8
	KMOVW   R8, K1
	VMOVAPD Z15, Z0
	VMOVUPD (SI), K1, Z0

exp8Body:
	VSUBPD    Z15, Z0, Z0
	VMULPD    Z11, Z0, Z1
	VCVTPD2DQ Z1, Y2
	VPADDD    Y10, Y2, Y3
	VPCMPGTD  Y9, Y3, Y4
	VPCMPGTD  Y3, Y8, Y5
	VPOR      Y4, Y5, Y4
	VPTEST    Y4, Y4
	JNZ       expDone
	VCVTDQ2PD Y2, Z1

	VFNMADD231PD.BCST expConst<>+32(SB), Z1, Z0
	VFNMADD231PD.BCST expConst<>+64(SB), Z1, Z0
	VMULPD.BCST       expConst<>+96(SB), Z0, Z0

	VBROADCASTSD     expConst<>+128(SB), Z2
	VFMADD213PD.BCST expConst<>+160(SB), Z0, Z2
	VFMADD213PD.BCST expConst<>+192(SB), Z0, Z2
	VFMADD213PD.BCST expConst<>+224(SB), Z0, Z2
	VFMADD213PD.BCST expConst<>+256(SB), Z0, Z2
	VFMADD213PD.BCST expConst<>+288(SB), Z0, Z2
	VFMADD213PD.BCST expConst<>+320(SB), Z0, Z2
	VFMADD213PD      Z12, Z0, Z2

	VMULPD      Z2, Z0, Z0
	VADDPD      Z13, Z0, Z2
	VMULPD      Z2, Z0, Z0
	VADDPD      Z13, Z0, Z2
	VMULPD      Z2, Z0, Z0
	VADDPD      Z13, Z0, Z2
	VMULPD      Z2, Z0, Z0
	VADDPD      Z13, Z0, Z2
	VFMADD213PD Z12, Z2, Z0

	VPMOVZXDQ Y3, Z4
	VPSLLQ    $52, Z4, Z4
	VMULPD    Z4, Z0, Z0

	CMPQ    CX, $8
	JLT     exp8PartSum
	VMOVUPD Z0, (SI)

	VADDSD        X0, X14, X14
	VPERMILPD     $1, X0, X5
	VADDSD        X5, X14, X14
	VEXTRACTF128  $1, Y0, X6
	VADDSD        X6, X14, X14
	VPERMILPD     $1, X6, X6
	VADDSD        X6, X14, X14
	VEXTRACTF64X4 $1, Z0, Y7
	VADDSD        X7, X14, X14
	VPERMILPD     $1, X7, X5
	VADDSD        X5, X14, X14
	VEXTRACTF128  $1, Y7, X6
	VADDSD        X6, X14, X14
	VPERMILPD     $1, X6, X6
	VADDSD        X6, X14, X14

	ADDQ $64, SI
	ADDQ $8, AX
	SUBQ $8, CX
	JNZ  exp8Loop
	JMP  expDone

exp8PartSum:
	ADDQ CX, AX

exp8PartLoop:
	VMOVSD  X0, (SI)
	VADDSD  X0, X14, X14
	ADDQ    $8, SI
	VALIGNQ $1, Z0, Z0, Z0
	DECQ    CX
	JNZ     exp8PartLoop

expDone:
	MOVQ   AX, done+40(FP)
	VMOVSD X14, total+48(FP)
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
