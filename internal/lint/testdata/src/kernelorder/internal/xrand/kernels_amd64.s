// Fixture: the generator's assembly. Integer vector work is what it is for;
// fused and single-precision arithmetic are findings, as in mathx.

#include "textflag.h"

// func pass(dst, src *int64, n int)
TEXT ·pass(SB), NOSPLIT, $0-24
	VPMULUDQ     Y1, Y15, Y0
	VPADDQ       Y0, Y1, Y1
	VPSUBQ       Y3, Y1, Y1
	VSUBPD       Y15, Y2, Y2
	VMULPD       Y4, Y2, Y2
	VCVTPS2PD    X5, Y5
	VFMADD213PD  Y1, Y2, Y3 // want `VFMADD213PD in xrand's assembly: a fused multiply-add`
	VMULPS       Y1, Y2, Y3 // want `VMULPS in xrand's assembly: single-precision arithmetic`
	VCVTPD2PSY   Y1, X2 // want `VCVTPD2PSY in xrand's assembly`
	VZEROUPPER
	RET

// The exception is mathx's: a block of the same name here is not exempt.
TEXT ·softmaxExp(SB), NOSPLIT, $0-48
	VFNMADD231PD Y1, Y2, Y3 // want `VFNMADD231PD in xrand's assembly: a fused multiply-add`
	VFMADD213PD  Y1, Y2, Y3 // want `VFMADD213PD in xrand's assembly`
	RET
