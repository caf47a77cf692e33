//go:build !purego

// AVX-512 bodies of AffineRows, AccumGrads, BackpropReLUDelta and Axpy:
// kernels_amd64.s's loops on eight lanes, selected by
// useAVX512 (kernels_amd64.go). The contract is kernels.go's, word for word:
// a lane is one independent output element with one serial accumulator,
// products are consumed in ascending index order, every multiply (VMULPD) is
// rounded before its add (VADDPD) — no fused instruction and no embedded
// rounding anywhere, speclint's kernelorder scans this file — the bias is
// added after the sum, exact-zero deltas are skipped (UCOMISD: equal and
// ordered) where the Go kernels skip them, and the ReLU is a VMAXPD with the
// value as its second source. Lanes past the end of a row are masked
// (K registers): never loaded as data, never stored.
//
// Only AVX512F is used: ZMM arithmetic, opmask loads, stores and compares,
// 512-bit shuffles and broadcasts. R14, R15 and BP are left alone; every
// routine ends in VZEROUPPER.

#include "textflag.h"

// LANEMASK sets mask to the first n (1-7, in CX) of eight lanes, by way of
// the general register tmp.
#define LANEMASK(tmp, mask) \
	MOVL  $1, tmp; \
	SHLL  CX, tmp; \
	DECL  tmp; \
	KMOVW tmp, mask

// ---------------------------------------------------------------------------
// Forward: out[r][o] = max(floor, b[o] + sum_i x[r][i]*w[o][i]).
//
// A tile is R rows × 8 outputs: lane k of accumulator Zr is out[r][o+k]. The
// weights are read as whole vectors: per block of eight input indices the
// eight weight rows w[o..o+7][i..i+7] are loaded (Z8-Z15) and transposed in
// registers (TRANSPOSE), so Z16+j holds w[o..o+7][i+j]; then each row's
// x[r][i+j] is broadcast from memory into the multiply (VMULPD.BCST) and the
// product added to that row's accumulator, j ascending. A last block of
// fewer than eight indices loads its weights masked and stops after its last
// index (TAILSTEPS). outDim is at least eight: when it is not a multiple of
// eight, the last group is the eight outputs that end at outDim, and
// recomputes the outputs it shares with the group before to the same bits.
//
// Registers: SI, DI = x rows 0 and 4 at the block; DX = row stride of x and
// w in bytes; BX = 3·DX; R8, R9 = weight rows o and o+4 at the block; R11 =
// weight row o at index 0; R12, R13 = out and b at the group; R10 = out's
// row stride in bytes; AX = outputs left; CX = indices left. Z24-Z31 hold
// products, and the floor and the bias at the store.

#define LOADW \
	VMOVUPD (R8), Z8; \
	VMOVUPD (R8)(DX*1), Z9; \
	VMOVUPD (R8)(DX*2), Z10; \
	VMOVUPD (R8)(BX*1), Z11; \
	VMOVUPD (R9), Z12; \
	VMOVUPD (R9)(DX*1), Z13; \
	VMOVUPD (R9)(DX*2), Z14; \
	VMOVUPD (R9)(BX*1), Z15

// LOADWTAIL is LOADW for the last 1-7 indices (mask K1): the lanes past
// them load as zero.
#define LOADWTAIL \
	VMOVUPD.Z (R8), K1, Z8; \
	VMOVUPD.Z (R8)(DX*1), K1, Z9; \
	VMOVUPD.Z (R8)(DX*2), K1, Z10; \
	VMOVUPD.Z (R8)(BX*1), K1, Z11; \
	VMOVUPD.Z (R9), K1, Z12; \
	VMOVUPD.Z (R9)(DX*1), K1, Z13; \
	VMOVUPD.Z (R9)(DX*2), K1, Z14; \
	VMOVUPD.Z (R9)(BX*1), K1, Z15

// TRANSPOSE turns rows Z8-Z15 (row k = w[o+k][i..i+7]) into columns
// Z16-Z23 (column j = w[o..o+7][i+j]): pairs within 128-bit blocks, then
// 128-bit blocks of pairs, then of quads.
#define TRANSPOSE \
	VUNPCKLPD  Z9, Z8, Z16; \
	VUNPCKHPD  Z9, Z8, Z17; \
	VUNPCKLPD  Z11, Z10, Z18; \
	VUNPCKHPD  Z11, Z10, Z19; \
	VUNPCKLPD  Z13, Z12, Z20; \
	VUNPCKHPD  Z13, Z12, Z21; \
	VUNPCKLPD  Z15, Z14, Z22; \
	VUNPCKHPD  Z15, Z14, Z23; \
	VSHUFF64X2 $0x88, Z18, Z16, Z8; \
	VSHUFF64X2 $0xDD, Z18, Z16, Z9; \
	VSHUFF64X2 $0x88, Z19, Z17, Z10; \
	VSHUFF64X2 $0xDD, Z19, Z17, Z11; \
	VSHUFF64X2 $0x88, Z22, Z20, Z12; \
	VSHUFF64X2 $0xDD, Z22, Z20, Z13; \
	VSHUFF64X2 $0x88, Z23, Z21, Z14; \
	VSHUFF64X2 $0xDD, Z23, Z21, Z15; \
	VSHUFF64X2 $0x88, Z12, Z8, Z16; \
	VSHUFF64X2 $0x88, Z14, Z10, Z17; \
	VSHUFF64X2 $0x88, Z13, Z9, Z18; \
	VSHUFF64X2 $0x88, Z15, Z11, Z19; \
	VSHUFF64X2 $0xDD, Z12, Z8, Z20; \
	VSHUFF64X2 $0xDD, Z14, Z10, Z21; \
	VSHUFF64X2 $0xDD, Z13, Z9, Z22; \
	VSHUFF64X2 $0xDD, Z15, Z11, Z23

// MACRn(d, c) adds x[r][i+j]·c to rows 0..n-1's accumulators, d = 8j.
#define MACR1(d, c) \
	VMULPD.BCST d(SI), c, Z24; \
	VADDPD      Z24, Z0, Z0

#define MACR2(d, c) \
	VMULPD.BCST d(SI), c, Z24; \
	VMULPD.BCST d(SI)(DX*1), c, Z25; \
	VADDPD      Z24, Z0, Z0; \
	VADDPD      Z25, Z1, Z1

#define MACR4(d, c) \
	VMULPD.BCST d(SI), c, Z24; \
	VMULPD.BCST d(SI)(DX*1), c, Z25; \
	VMULPD.BCST d(SI)(DX*2), c, Z26; \
	VMULPD.BCST d(SI)(BX*1), c, Z27; \
	VADDPD      Z24, Z0, Z0; \
	VADDPD      Z25, Z1, Z1; \
	VADDPD      Z26, Z2, Z2; \
	VADDPD      Z27, Z3, Z3

#define MACR8(d, c) \
	VMULPD.BCST d(SI), c, Z24; \
	VMULPD.BCST d(SI)(DX*1), c, Z25; \
	VMULPD.BCST d(SI)(DX*2), c, Z26; \
	VMULPD.BCST d(SI)(BX*1), c, Z27; \
	VMULPD.BCST d(DI), c, Z28; \
	VMULPD.BCST d(DI)(DX*1), c, Z29; \
	VMULPD.BCST d(DI)(DX*2), c, Z30; \
	VMULPD.BCST d(DI)(BX*1), c, Z31; \
	VADDPD      Z24, Z0, Z0; \
	VADDPD      Z25, Z1, Z1; \
	VADDPD      Z26, Z2, Z2; \
	VADDPD      Z27, Z3, Z3; \
	VADDPD      Z28, Z4, Z4; \
	VADDPD      Z29, Z5, Z5; \
	VADDPD      Z30, Z6, Z6; \
	VADDPD      Z31, Z7, Z7

// BLOCK is one block of eight indices, ascending.
#define BLOCK(MACR) \
	MACR(0, Z16); \
	MACR(8, Z17); \
	MACR(16, Z18); \
	MACR(24, Z19); \
	MACR(32, Z20); \
	MACR(40, Z21); \
	MACR(48, Z22); \
	MACR(56, Z23)

// TAILSTEPS is BLOCK for the last CX (1-7) indices, ascending, then a jump
// to done.
#define TAILSTEPS(MACR, done) \
	MACR(0, Z16); \
	CMPQ CX, $1; \
	JEQ  done; \
	MACR(8, Z17); \
	CMPQ CX, $2; \
	JEQ  done; \
	MACR(16, Z18); \
	CMPQ CX, $3; \
	JEQ  done; \
	MACR(24, Z19); \
	CMPQ CX, $4; \
	JEQ  done; \
	MACR(32, Z20); \
	CMPQ CX, $5; \
	JEQ  done; \
	MACR(40, Z21); \
	CMPQ CX, $6; \
	JEQ  done; \
	MACR(48, Z22); \
	JMP  done

// INDICES runs one group's index loop into zeroed accumulators: full
// blocks, then the tail block, each stepping SI, DI, R8 and R9 on.
#define INDICES(MACR, loop, tail, done) \
	MOVQ x+0(FP), SI; \
	LEAQ (SI)(DX*4), DI; \
	MOVQ R11, R8; \
	LEAQ (R11)(DX*4), R9; \
	MOVQ in+32(FP), CX; \
	SUBQ $8, CX; \
	JL   tail; \
	PCALIGN $32; \
loop: \
	LOADW; \
	TRANSPOSE; \
	BLOCK(MACR); \
	ADDQ $64, SI; \
	ADDQ $64, DI; \
	ADDQ $64, R8; \
	ADDQ $64, R9; \
	SUBQ $8, CX; \
	JGE  loop; \
tail: \
	ADDQ $8, CX; \
	JZ   done; \
	LANEMASK(R9, K1); \
	LEAQ (R8)(DX*4), R9; \
	LOADWTAIL; \
	TRANSPOSE; \
	TAILSTEPS(MACR, done)

// STOREPREP loads the bias (Z25) and the floor (Z24) and points R8 at the
// group's first output row.
#define STOREPREP \
	VMOVUPD      (R13), Z25; \
	VBROADCASTSD floor+48(FP), Z24; \
	MOVQ         R12, R8

// PUTZ adds the bias, applies the floor and stores one row's eight outputs
// at R8, stepping R8 by out's row stride.
#define PUTZ(acc) \
	VADDPD  acc, Z25, acc; \
	VMAXPD  acc, Z24, acc; \
	VMOVUPD acc, (R8); \
	ADDQ    R10, R8

// NEXTGROUP steps to the next eight outputs, or back to the eight that end
// at outDim when fewer than eight are left; after the last it jumps to done.
#define NEXTGROUP(group, done) \
	SUBQ    $8, AX; \
	JZ      done; \
	MOVQ    $8, CX; \
	MOVQ    CX, R9; \
	CMPQ    AX, CX; \
	CMOVQLT AX, CX; \
	CMOVQLT R9, AX; \
	MOVQ    CX, R9; \
	IMULQ   DX, R9; \
	ADDQ    R9, R11; \
	LEAQ    (R12)(CX*8), R12; \
	LEAQ    (R13)(CX*8), R13; \
	JMP     group

// TILESETUP loads the arguments.
#define TILESETUP \
	MOVQ in+32(FP), DX; \
	SHLQ $3, DX; \
	LEAQ (DX)(DX*2), BX; \
	MOVQ w+8(FP), R11; \
	MOVQ b+16(FP), R13; \
	MOVQ out+24(FP), R12; \
	MOVQ outDim+40(FP), AX; \
	MOVQ AX, R10; \
	SHLQ $3, R10

// func affineTile8Z(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile8Z(SB), NOSPLIT, $0-56
	TILESETUP

group8:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	INDICES(MACR8, loop8, tail8, sum8)

sum8:
	STOREPREP
	PUTZ(Z0)
	PUTZ(Z1)
	PUTZ(Z2)
	PUTZ(Z3)
	PUTZ(Z4)
	PUTZ(Z5)
	PUTZ(Z6)
	PUTZ(Z7)
	NEXTGROUP(group8, done8)

done8:
	VZEROUPPER
	RET

// func affineTile4Z(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile4Z(SB), NOSPLIT, $0-56
	TILESETUP

group4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	INDICES(MACR4, loop4, tail4, sum4)

sum4:
	STOREPREP
	PUTZ(Z0)
	PUTZ(Z1)
	PUTZ(Z2)
	PUTZ(Z3)
	NEXTGROUP(group4, done4)

done4:
	VZEROUPPER
	RET

// func affineTile2Z(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile2Z(SB), NOSPLIT, $0-56
	TILESETUP

group2:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	INDICES(MACR2, loop2, tail2, sum2)

sum2:
	STOREPREP
	PUTZ(Z0)
	PUTZ(Z1)
	NEXTGROUP(group2, done2)

done2:
	VZEROUPPER
	RET

// func affineTile1Z(x, w, b, out *float64, in, outDim int, floor float64)
TEXT ·affineTile1Z(SB), NOSPLIT, $0-56
	TILESETUP

group1:
	VPXORQ Z0, Z0, Z0
	INDICES(MACR1, loop1, tail1, sum1)

sum1:
	STOREPREP
	PUTZ(Z0)
	NEXTGROUP(group1, done1)

done1:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Backward: kernels_amd64.s's two backward kernels on eight lanes, dst[c]
// (+)= sum_j s[j]*m[j][c] over ascending j with exact-zero s[j] skipped. A
// pass keeps up to 64 columns in Z0..Z7 across the whole j loop; the last
// 1-7 columns run masked (K1).
//
// Registers: BX = dst, R10 = m, R13 = act (backprop) at the pass's first
// column; AX = columns left; DX = s, R12 = k; SI, DI = s[j] and m[j] at that
// column, stepped by R8 and R9 bytes; CX = j's left; R11 = the sign mask;
// Z12 = s[j] in every lane, X14 = the bias sum (accumColsZ, whose R13 is
// bias's address), Z15 = 0 (backpropRowZ).

#define MADZ(off, acc) \
	VMULPD off(DI), Z12, Z13; \
	VADDPD Z13, acc, acc

#define MADZ8 \
	MADZ(0, Z0); \
	MADZ(64, Z1); \
	MADZ(128, Z2); \
	MADZ(192, Z3); \
	MADZ(256, Z4); \
	MADZ(320, Z5); \
	MADZ(384, Z6); \
	MADZ(448, Z7)

#define MADZ4 \
	MADZ(0, Z0); \
	MADZ(64, Z1); \
	MADZ(128, Z2); \
	MADZ(192, Z3)

#define MADZ2 \
	MADZ(0, Z0); \
	MADZ(64, Z1)

#define MADZ1 MADZ(0, Z0)

// MADZTAIL is MADZ1 for the last 1-7 columns: the lanes past them load as
// zero and are never stored.
#define MADZTAIL \
	VMOVUPD.Z (DI), K1, Z13; \
	VMULPD    Z13, Z12, Z13; \
	VADDPD    Z13, Z0, Z0

// JLOOPZ is kernels_amd64.s's JLOOP with s[j] broadcast to eight lanes
// straight from memory. The skip tests s[j]'s bits without its sign against
// zero (R11 = the mask): ±0 skips, NaN does not, as UCOMISD's equal and
// ordered would decide — on the integer ports, which leaves the vector ports
// to the products and sums.
#define JLOOPZ(loop, next, MADS, BIAS) \
	MOVQ DX, SI; \
	MOVQ R10, DI; \
	MOVQ R12, CX; \
	MOVQ $0x7fffffffffffffff, R11; \
	PCALIGN $32; \
loop: \
	TESTQ        R11, (SI); \
	JZ           next; \
	BIAS; \
	VBROADCASTSD (SI), Z12; \
	MADS; \
next: \
	ADDQ R8, SI; \
	ADDQ R9, DI; \
	DECQ CX; \
	JNZ  loop

#define ADDBIAS VADDSD (SI), X14, X14
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

// TAILMASK sets K1 to the last AX (1-7) columns, by way of CX and tmp.
#define TAILMASK(tmp) \
	MOVQ AX, CX; \
	LANEMASK(tmp, K1)

// func accumColsZ(dst, s, m, bias *float64, n, k, sStride, mStride, outs int)
//
// accumCols for outs outputs in a row: output q adds to dst + q·n and bias
// + q, taking its s from s + q; m is the same for all of them. The count of
// outputs left and the next bias live in the frame.
TEXT ·accumColsZ(SB), NOSPLIT, $16-72
	MOVQ dst+0(FP), BX
	MOVQ s+8(FP), DX
	MOVQ k+40(FP), R12
	MOVQ bias+24(FP), R13
	MOVQ sStride+48(FP), R8
	SHLQ $3, R8
	MOVQ mStride+56(FP), R9
	SHLQ $3, R9
	MOVQ outs+64(FP), AX
	MOVQ AX, left-8(SP)

output:
	MOVQ   R13, nextBias-16(SP)
	ADDQ   $8, nextBias-16(SP)
	MOVQ   m+16(FP), R10
	MOVQ   n+32(FP), AX
	VMOVSD (R13), X14

acc64:
	CMPQ AX, $64
	JLT  acc32
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7
	JLOOPZ(accLoop64, accNext64, MADZ8, ADDBIAS)
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, 256(BX)
	VMOVUPD Z5, 320(BX)
	VMOVUPD Z6, 384(BX)
	VMOVUPD Z7, 448(BX)
	PUTBIAS(accBias64)
	STEP(64)
	JMP acc64

acc32:
	CMPQ AX, $32
	JLT  acc16
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	JLOOPZ(accLoop32, accNext32, MADZ4, ADDBIAS)
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	PUTBIAS(accBias32)
	STEP(32)

acc16:
	CMPQ AX, $16
	JLT  acc8
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	JLOOPZ(accLoop16, accNext16, MADZ2, ADDBIAS)
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	PUTBIAS(accBias16)
	STEP(16)

acc8:
	CMPQ AX, $8
	JLT  accTail
	VMOVUPD 0(BX), Z0
	JLOOPZ(accLoop8, accNext8, MADZ1, ADDBIAS)
	VMOVUPD Z0, 0(BX)
	PUTBIAS(accBias8)
	STEP(8)

accTail:
	TESTQ AX, AX
	JZ    accDone
	TAILMASK(R11)
	VMOVUPD.Z (BX), K1, Z0
	JLOOPZ(accLoopT, accNextT, MADZTAIL, ADDBIAS)
	VMOVUPD Z0, K1, (BX)
	PUTBIAS(accBiasT)

accDone:
	// BX stops at the tail's first column, AX columns short of the next
	// output's row.
	DECQ left-8(SP)
	JZ   accOut
	LEAQ (BX)(AX*8), BX
	ADDQ $8, DX
	MOVQ nextBias-16(SP), R13
	JMP  output

accOut:
	VZEROUPPER
	RET

// RELUZ zeroes the lanes of acc whose forward activation is <= 0 (NaN is
// not): K2 = !(0 >= act), unordered true, then acc keeps K2's lanes.
#define RELUZ(off, acc) \
	VCMPPD    $0x09, off(R13), Z15, K2; \
	VMOVAPD.Z acc, K2, acc

// func backpropRowZ(dst, s, m, act *float64, n, k, mStride int)
TEXT ·backpropRowZ(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), BX
	MOVQ   s+8(FP), DX
	MOVQ   m+16(FP), R10
	MOVQ   k+40(FP), R12
	MOVQ   act+24(FP), R13
	MOVQ   n+32(FP), AX
	MOVQ   $8, R8
	MOVQ   mStride+48(FP), R9
	SHLQ   $3, R9
	VPXORQ Z15, Z15, Z15

bp64:
	CMPQ AX, $64
	JLT  bp32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JLOOPZ(bpLoop64, bpNext64, MADZ8, NOBIAS)
	RELUZ(0, Z0)
	RELUZ(64, Z1)
	RELUZ(128, Z2)
	RELUZ(192, Z3)
	RELUZ(256, Z4)
	RELUZ(320, Z5)
	RELUZ(384, Z6)
	RELUZ(448, Z7)
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, 256(BX)
	VMOVUPD Z5, 320(BX)
	VMOVUPD Z6, 384(BX)
	VMOVUPD Z7, 448(BX)
	ADDQ $512, R13
	STEP(64)
	JMP bp64

bp32:
	CMPQ AX, $32
	JLT  bp16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JLOOPZ(bpLoop32, bpNext32, MADZ4, NOBIAS)
	RELUZ(0, Z0)
	RELUZ(64, Z1)
	RELUZ(128, Z2)
	RELUZ(192, Z3)
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	ADDQ $256, R13
	STEP(32)

bp16:
	CMPQ AX, $16
	JLT  bp8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	JLOOPZ(bpLoop16, bpNext16, MADZ2, NOBIAS)
	RELUZ(0, Z0)
	RELUZ(64, Z1)
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	ADDQ $128, R13
	STEP(16)

bp8:
	CMPQ AX, $8
	JLT  bpTail
	VPXORQ Z0, Z0, Z0
	JLOOPZ(bpLoop8, bpNext8, MADZ1, NOBIAS)
	RELUZ(0, Z0)
	VMOVUPD Z0, 0(BX)
	ADDQ $64, R13
	STEP(8)

bpTail:
	TESTQ AX, AX
	JZ    bpDone
	TAILMASK(R11)
	VPXORQ    Z0, Z0, Z0
	JLOOPZ(bpLoopT, bpNextT, MADZTAIL, NOBIAS)
	VMOVUPD.Z (R13), K1, Z13
	VCMPPD    $0x09, Z13, Z15, K2
	VMOVAPD.Z Z0, K2, Z0
	VMOVUPD   Z0, K1, (BX)

bpDone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Axpy: y[i] += alpha*x[i], a lane one element, the product rounded (VMULPD)
// before it is added (VADDPD). Thirty-two elements a pass, then eight, then
// the last 1-7 masked.
//
// Registers: SI, DI = x and y at the next element; CX = elements left, less
// the pass width while a pass is running; Z15 = alpha in every lane.

// func axpyZ(alpha float64, x, y *float64, n int)
TEXT ·axpyZ(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Z15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	SUBQ         $32, CX
	JL           axpyZ8

	PCALIGN $32
axpyZLoop32:
	VMULPD  0(SI), Z15, Z0
	VMULPD  64(SI), Z15, Z1
	VMULPD  128(SI), Z15, Z2
	VMULPD  192(SI), Z15, Z3
	VADDPD  0(DI), Z0, Z0
	VADDPD  64(DI), Z1, Z1
	VADDPD  128(DI), Z2, Z2
	VADDPD  192(DI), Z3, Z3
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $32, CX
	JGE     axpyZLoop32

axpyZ8:
	ADDQ $24, CX
	JL   axpyZTail

axpyZLoop8:
	VMULPD  (SI), Z15, Z0
	VADDPD  (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JGE     axpyZLoop8

axpyZTail:
	ADDQ $8, CX
	JZ   axpyZDone
	LANEMASK(AX, K1)
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DI), K1, Z1
	VMULPD    Z0, Z15, Z0
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (DI)

axpyZDone:
	VZEROUPPER
	RET
