//go:build fastmath

// The fast tier's assembly may fuse; the analyzer must not flag it.

TEXT ·kernelFast(SB), $0-8
	VFMADD231PD Y8, Y9, Y0
	RET
