//go:build !amd64 || purego

package mathx

// No assembly off amd64 or under the purego tag: the Go kernels of kernels.go
// are the only path, and the dispatch branches on these constants fold away.
const (
	useAVX2   = false
	useFMAExp = false
)

// HasAVX2 is false off amd64 and under the purego tag: there is no assembly to
// select.
func HasAVX2() bool { return false }

func axpy(alpha float64, x, y *float64, n int)                       {}
func expShiftedSum(x []float64, shift float64) float64               { return 0 }
func divRow(x *float64, n int, s float64)                            {}
func affineRowsAVX2(x Matrix, w, b []float64, out Matrix, relu bool) {}
func accumGradsAVX2(delta, act Matrix, wg, bg []float64)             {}
func backpropReLUDeltaAVX2(delta Matrix, w []float64, act, prev Matrix) {
}
