//go:build !purego

package nn

import (
	"testing"
	_ "unsafe" // go:linkname

	"github.com/specdag/specdag/internal/mathx"
)

// mathxUseAVX2 and mathxUseAVX512 are mathx's unexported dispatch switches:
// the differential suite holds every kernel path to the per-sample
// reference, and mathx exports no way to choose one (which path runs is not
// an option, only a fact of the CPU).
//
//go:linkname mathxUseAVX2 github.com/specdag/specdag/internal/mathx.useAVX2
var mathxUseAVX2 bool

//go:linkname mathxUseAVX512 github.com/specdag/specdag/internal/mathx.useAVX512
var mathxUseAVX512 bool

// eachBackend runs f on the Go kernels, then on the AVX2 bodies, then on the
// AVX-512 ones, each vector leg skipped with a message when the CPU lacks
// it. Every leg runs in the caller's own test (a subtest that f starts
// again gets the testing package's #01 suffix), and the log says which leg
// a failure is in.
func eachBackend(t *testing.T, f func()) {
	probed2, probed512 := mathxUseAVX2, mathxUseAVX512
	defer func() { mathxUseAVX2, mathxUseAVX512 = probed2, probed512 }()
	for _, leg := range []struct {
		avx2, avx512, runs bool
		lacks              string
	}{
		{false, false, true, ""},
		{true, false, probed2, "CPU lacks AVX2: the assembly kernels cannot run here, avx2 leg skipped"},
		{true, true, probed512, "CPU lacks AVX-512: the eight-lane kernels cannot run here, avx512 leg skipped"},
	} {
		if !leg.runs {
			t.Log(leg.lacks)
			continue
		}
		mathxUseAVX2, mathxUseAVX512 = leg.avx2, leg.avx512
		t.Log("kernels: " + mathx.Backend())
		f()
	}
}
