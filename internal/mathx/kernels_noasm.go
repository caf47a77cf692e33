//go:build !amd64

package mathx

// No assembly off amd64: the Go kernels of kernels.go are the only path, and
// the dispatch branches on this constant fold away.
const useAVX2 = false

// HasAVX2 is false off amd64: there is no assembly to select.
func HasAVX2() bool { return false }

func axpy(alpha float64, x, y *float64, n int)                       {}
func affineRowsAVX2(x Matrix, w, b []float64, out Matrix, relu bool) {}
func accumGradsAVX2(delta, act Matrix, wg, bg []float64)             {}
func backpropReLUDeltaAVX2(delta Matrix, w []float64, act, prev Matrix) {
}
