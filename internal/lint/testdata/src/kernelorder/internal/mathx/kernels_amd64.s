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

// The named exception: inside softmaxExp, which copies math.Exp's FMA branch,
// the two fused forms that branch uses are the reference's own rounding.
// Every other fused form is still a finding there.

// func softmaxExp(x *float64, n int, shift, sum float64) (done int, total float64)
TEXT ·softmaxExp(SB), NOSPLIT, $0-48
	VFNMADD231PD expConst<>+32(SB), Y1, Y0
	VFMADD213PD  expConst<>+160(SB), Y0, Y2
expLoop:
	VFMADD213PD  Y12, Y2, Y0
	VFMADD231PD  Y12, Y2, Y0 // want `VFMADD231PD in the default mathx backend's assembly`
	VFNMADD231SD X12, X2, X0 // want `VFNMADD231SD in the default mathx backend's assembly`
	VFMADD213SD  X12, X2, X0 // want `VFMADD213SD in the default`
	VFMSUB213PD  Y12, Y2, Y0 // want `VFMSUB213PD in the default`
	VMULPS       Y1, Y2, Y3 // want `VMULPS in the default mathx backend's assembly: single-precision`
	VZEROUPPER
	RET

// The block ends at the next directive: a macro defined after it is judged
// where it stands, whatever block expands it.
#define LATEFMA VFMADD213PD Y1, Y2, Y3 // want `VFMADD213PD in the default mathx backend's assembly`

DATA expConst<>+0(SB)/8, $1.0
GLOBL expConst<>(SB), RODATA|NOPTR, $8

	VFNMADD231PD Y1, Y2, Y3 // want `VFNMADD231PD in the default`

// Another TEXT block gets no exception, even for the two forms.
TEXT ·divRow(SB), NOSPLIT, $0-24
	VFMADD231PD Y8, Y9, Y0 // want `VFMADD231PD in the default mathx backend's assembly`
	VFMADD213PD Y8, Y9, Y0 // want `VFMADD213PD in the default`
	VFNMADD231PD Y8, Y9, Y0 // want `VFNMADD231PD in the default`
	RET

// A symbol that only ends like the exception's is another block.
TEXT ·softmaxExpAlt(SB), NOSPLIT, $0-48
	VFMADD213PD Y8, Y9, Y0 // want `VFMADD213PD in the default`
	RET
