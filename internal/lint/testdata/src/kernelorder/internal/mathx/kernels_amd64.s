// Fixture: assembly of the default backend. The analyzer reads mnemonics
// wherever they stand — statement heads, macro bodies, after a label.

#include "textflag.h"

#define MAC(acc) \
	VFMADD231PD Y8, Y9, acc // want `VFMADD231PD in the default mathx backend's assembly`

// func kernel(x *float64)
TEXT ·kernel(SB), NOSPLIT, $0-8
	VMULPD       Y8, Y9, Y10
	VADDPD       Y10, Y0, Y0
	VFNMADD213SD X1, X2, X3 // want `VFNMADD213SD in the default mathx backend's assembly: a fused multiply-add`
loop:	VFMSUB132PD  Y1, Y2, Y3 // want `VFMSUB132PD in the default`
	VFNMSUB231PD Y1, Y2, Y3 // want `VFNMSUB231PD in the default`
	VADDPS       Y1, Y2, Y3 // want `VADDPS in the default mathx backend's assembly: single-precision arithmetic`
	MULSS        X1, X2 // want `MULSS in the default`
	VSUBSS       X1, X2, X3 // want `VSUBSS in the default`
	VDIVPS       Y1, Y2, Y3 // want `VDIVPS in the default`
	VCVTPD2PSY   Y1, X2 // want `VCVTPD2PSY in the default`
	// A mnemonic in a comment is not an instruction: VFMADD231PD, VADDPS.
	VZEROUPPER
	RET
