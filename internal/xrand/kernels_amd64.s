//go:build !purego

// AVX2 bodies of the generator's pass (source.advance: the lagged add and the
// first-touch seeding) and of the ziggurat's fast path (NormFloat64s). A lane
// is one register word or one draw, computed as the Go loop computes it: the
// integer steps are exact, and the one floating-point product, x = j·wn[i],
// is a single VMULPD of the values Go multiplies. No fused or single-precision
// instruction: speclint's kernelorder scans this file.
//
// R14, R15 and BP are left alone; every routine ends in VZEROUPPER.

#include "textflag.h"

// 2³¹−1, the Lehmer modulus, and one less.
DATA mod31<>+0(SB)/8, $0x7fffffff
DATA mod31<>+8(SB)/8, $0x7ffffffe
GLOBL mod31<>(SB), RODATA|NOPTR, $16

// As a float64, 2⁵² + 2³¹: a word whose upper half is 0x43300000 and lower
// half j xor 2³¹ is the float64 2⁵² + 2³¹ + j, so subtracting this leaves
// float64(j) exactly.
DATA cvtMagic<>+0(SB)/8, $0x4330000080000000
GLOBL cvtMagic<>(SB), RODATA|NOPTR, $8

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

// tailMask<> + n*8 is the VPMASKMOVQ mask selecting the last n lanes.
DATA tailMask<>+0(SB)/8, $0
DATA tailMask<>+8(SB)/8, $0
DATA tailMask<>+16(SB)/8, $0
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// The byte offset of a draw's strip in ·zig, once the word is shifted right
// by 27: j's low seven bits, times 16.
DATA stripMask<>+0(SB)/8, $0x7f0
GLOBL stripMask<>(SB), RODATA|NOPTR, $8

// func addAVX2(dst, src *int64, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

addLoop:
	VMOVDQU (SI), Y0
	VPADDQ  (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     addLoop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Seeding: dst[i] = (m0<<40 ^ m1<<20 ^ m2) ^ cooked[i], where mk is
// mulmod(lehmer[k][lo+i], x0). VPMULUDQ multiplies the low 32 bits of each
// lane, which hold both factors whole (each is below 2³¹). The reduction is
// mulmod's: t = p&(2³¹−1) + p>>31, less 2³¹−1 where t > 2³¹−2.
//
// Registers: DI = dst, SI = the lehmer row 0 at the group (rows 1 and 2 lie
// 4856 and 9712 bytes on), DX = cooked, CX = words left; Y15 = x0, Y14 =
// 2³¹−1, Y13 = 2³¹−2.

#define MULMOD(row, r) \
	VPMULUDQ row(SI), Y15, r; \
	VPAND    Y14, r, Y3; \
	VPSRLQ   $31, r, r; \
	VPADDQ   Y3, r, r; \
	VPCMPGTQ Y13, r, Y3; \
	VPAND    Y14, Y3, Y3; \
	VPSUBQ   Y3, r, r

// func seedAVX2(dst *int64, mul *uint64, cooked *int64, n int, x0 uint64)
TEXT ·seedAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         mul+8(FP), SI
	MOVQ         cooked+16(FP), DX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ x0+32(FP), Y15
	VPBROADCASTQ mod31<>+0(SB), Y14
	VPBROADCASTQ mod31<>+8(SB), Y13

seedLoop:
	MULMOD(0, Y0)
	MULMOD(4856, Y1)
	MULMOD(9712, Y2)
	VPSLLQ  $40, Y0, Y0
	VPSLLQ  $20, Y1, Y1
	VPXOR   Y1, Y0, Y0
	VPXOR   Y2, Y0, Y0
	VPXOR   (DX), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     seedLoop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// The ziggurat's fast path, four draws a group. The group's words are loaded
// in memory order, run[n-4] … run[n-1], so lane 3 holds the first draw; the
// values are reversed into draw order only for the store. Per lane, w the
// word:
//
//   j = int32(w>>31)  is the upper half of w<<1;
//   i = j & 0x7F      is the byte offset (w>>27) & 0x7F0 into ·zig;
//   x = float64(j) * float64(wn[i])  (float64(j) by the cvtMagic subtraction);
//   accept where |j| < kn[i] unsigned: VPABSD maps MinInt32 to 2³¹, and
//   max(|j|, kn[i]) == |j| marks the lanes that fail.
//
// The last one to three words of a run make a group of their own, loaded
// with a mask, whose missing lanes are never stored or counted.
//
// Registers: DI = dst, SI = run, CX = words left (run[CX-1] is the next
// draw), AX = values written; R8..R11 = the strip offsets of lanes 3..0, R12 =
// ·zig; Y15 = cvtMagic, Y14 = the offset mask 0x7F0.

// GROUP takes the words in Y0 and leaves the values, in draw order, in Y2 and
// the lanes that fail the fast path as bits of DX.
#define GROUP \
	VPSRLQ       $27, Y0, Y3; \
	VPAND        Y14, Y3, Y3; \
	VMOVQ        X3, R11; \
	VPEXTRQ      $1, X3, R10; \
	VEXTRACTI128 $1, Y3, X3; \
	VMOVQ        X3, R9; \
	VPEXTRQ      $1, X3, R8; \
	VPSLLQ       $1, Y0, Y1; \
	VPSRLQ       $32, Y1, Y2; \
	VPXOR        Y15, Y2, Y2; \
	VSUBPD       Y15, Y2, Y2; \
	VMOVDQU      (R12)(R11*1), X4; \
	VMOVDQU      (R12)(R10*1), X5; \
	VINSERTI128  $1, (R12)(R9*1), Y4, Y4; \
	VINSERTI128  $1, (R12)(R8*1), Y5, Y5; \
	VPUNPCKHQDQ  Y5, Y4, Y6; \
	VPUNPCKLQDQ  Y5, Y4, Y4; \
	VMULPD       Y4, Y2, Y2; \
	VPABSD       Y1, Y1; \
	VPMAXUD      Y6, Y1, Y6; \
	VPCMPEQD     Y1, Y6, Y6; \
	VMOVMSKPD    Y6, DX; \
	VPERMQ       $0x1b, Y2, Y2

// func normAVX2(dst *float64, run *int64, n int) int
TEXT ·normAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         run+8(FP), SI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	LEAQ         ·zig(SB), R12
	VPBROADCASTQ cvtMagic<>(SB), Y15
	VPBROADCASTQ stripMask<>(SB), Y14
	CMPQ         CX, $4
	JLT          normTail

normLoop:
	VMOVDQU -32(SI)(CX*8), Y0
	GROUP
	TESTL   DX, DX
	JNZ     normStop
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     normLoop

normTail:
	// r = CX < 4 words left: lanes 4−r … 3 of a group that would start r−4
	// words before the run; the masked load reads none of the missing ones.
	TESTQ      CX, CX
	JZ         normDone
	LEAQ       tailMask<>(SB), R9
	VMOVDQU    (R9)(CX*8), Y7
	VPMASKMOVQ -32(SI)(CX*8), Y7, Y0
	GROUP
	VMOVMSKPD  Y7, BX
	ANDL       BX, DX
	JNZ        normStop
	// All r accepted: as if the lane after them, 3−r, had failed.
	MOVL       $3, DX
	SUBL       CX, DX
	JMP        normStore

normStop:
	// The first failing draw is the highest failing lane b.
	BSRL DX, DX

normStore:
	// The 3−b draws before lane b are stored and counted.
	LEAQ       laneMask<>+8(SB), R9
	VMOVDQU    (R9)(DX*8), Y7
	VMASKMOVPD Y2, Y7, (DI)(AX*8)
	ADDQ       $3, AX
	SUBQ       DX, AX

normDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
