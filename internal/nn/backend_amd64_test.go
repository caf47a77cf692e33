//go:build !purego

package nn

import (
	"testing"
	_ "unsafe" // go:linkname

	"github.com/specdag/specdag/internal/mathx"
)

// mathxUseAVX2 is mathx's unexported dispatch switch: the differential suite
// holds both kernel paths to the per-sample reference, and mathx exports no
// way to choose one (which path runs is not an option, only a fact of the CPU).
//
//go:linkname mathxUseAVX2 github.com/specdag/specdag/internal/mathx.useAVX2
var mathxUseAVX2 bool

// eachBackend runs f once on the Go kernels and once on the assembly, the
// latter skipped with a message when the CPU lacks AVX2. Both legs run in the
// caller's own test (a subtest that f starts twice gets the testing package's
// #01 suffix the second time), and the log says which leg a failure is in.
func eachBackend(t *testing.T, f func()) {
	probed := mathx.Backend() != "generic"
	defer func() { mathxUseAVX2 = probed }()
	mathxUseAVX2 = false
	t.Log("kernels: generic")
	f()
	if !probed {
		t.Log("CPU lacks AVX2: the assembly kernels cannot run here, vector leg skipped")
		return
	}
	mathxUseAVX2 = true
	t.Log("kernels: " + mathx.Backend())
	f()
}
