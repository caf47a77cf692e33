//go:build !purego

package xrand

import "github.com/specdag/specdag/internal/mathx"

// useAVX2 selects the assembly bodies of kernels_amd64.s over the Go loops
// beside their call sites, on mathx's CPU probe. Both paths draw the same
// words and values, so which one runs is a matter of speed only. Tests flip it
// to hold the two against each other.
var useAVX2 = mathx.HasAVX2()

// zig[i] is strip i of the ziggurat as normAVX2 reads it, one 16-byte load per
// draw: float64(wn[i]), then kn[i] in the upper half of a word, where the
// kernel keeps j.
var zig = func() (t [128]struct {
	wn float64
	kn uint64
}) {
	for i := range t {
		t[i].wn, t[i].kn = float64(wn[i]), uint64(kn[i])<<32
	}
	return t
}()

// addAVX2 adds src[i] to dst[i] for i in [0, n); n is a positive multiple of
// four and the spans do not overlap.
//
//go:noescape
func addAVX2(dst, src *int64, n int)

// seedAVX2 sets dst[i] to register word lo+i as source.word computes it, for
// i in [0, n): mul points at lehmer[0][lo] (the rows lie rngLen words apart)
// and cooked at cooked[lo]. n is a positive multiple of four.
//
//go:noescape
func seedAVX2(dst *int64, mul *uint64, cooked *int64, n int, x0 uint64)

// normAVX2 runs the ziggurat's fast path over the words run[n-1], run[n-2], …
// (draw order), four at a time, writing the accepted values to dst, dst+1, ….
// It stops at the first draw the fast path rejects, or at the end of the run,
// and returns the number of values written, which is the number of words
// drawn. n is positive.
//
//go:noescape
func normAVX2(dst *float64, run *int64, n int) int
