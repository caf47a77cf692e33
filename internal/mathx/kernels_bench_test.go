package mathx

import (
	"fmt"
	"testing"
)

// kernelBackend is one setting of the kernels' dispatch for BenchmarkKernels.
type kernelBackend struct {
	name string
	with func(b *testing.B, f func())
}

// kernelBackends is what this build can time: the Go kernels everywhere, and
// on amd64 (kernels_amd64_test.go) the same again with the switch forced each
// way. This file uses exported API only, so it also runs in a checkout from
// before the assembly existed and times the Go kernels there.
var kernelBackends = []kernelBackend{{"generic", func(b *testing.B, f func()) { f() }}}

// Shapes of the four workloads: the long haul's 16→8, FMNIST's 64→32 at its
// 20 test rows and its 10-row minibatch, CIFAR-100's 32→100 head.
var benchShapes = []struct{ rows, in, out int }{{10, 16, 8}, {20, 64, 32}, {10, 64, 32}, {10, 32, 100}}

// softmaxShapes are the heads the softmax runs over at a 10-row minibatch:
// FMNIST's 10 classes and CIFAR-100's 100.
var softmaxShapes = []struct{ rows, cols int }{{10, 10}, {10, 100}}

// axpyLengths are the parameter counts the SGD update runs over: FMNIST's
// 2 410 and CIFAR-100's 5 380.
var axpyLengths = []int{2410, 5380}

// BenchmarkKernels reports ns per row for the three hot layer kernels and the
// softmax, and ns per element for Axpy:
//
//	go test -run '^$' -bench Kernels ./internal/mathx
func BenchmarkKernels(b *testing.B) {
	for _, be := range kernelBackends {
		for _, kernel := range []string{"affine", "accum", "backprop"} {
			for _, s := range benchShapes {
				b.Run(fmt.Sprintf("%s/%s/%dx%dx%d", be.name, kernel, s.rows, s.in, s.out), func(b *testing.B) {
					g := lcg(1)
					x, delta := randMatrix(&g, s.rows, s.in), randMatrix(&g, s.rows, s.out)
					w, bias := randVec(&g, s.in*s.out), randVec(&g, s.out)
					act, prev := NewMatrix(s.rows, s.out), NewMatrix(s.rows, s.in)
					wg, bg := make([]float64, s.in*s.out), make([]float64, s.out)
					be.with(b, func() {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							switch kernel {
							case "affine":
								AffineRowsReLU(x, w, bias, act)
							case "accum":
								AccumGrads(delta, x, wg, bg)
							case "backprop":
								BackpropReLUDelta(delta, w, x, prev)
							}
						}
					})
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.rows), "ns/row")
				})
			}
		}
		for _, s := range softmaxShapes {
			b.Run(fmt.Sprintf("%s/softmax/%dx%d", be.name, s.rows, s.cols), func(b *testing.B) {
				g := lcg(1)
				m := randMatrix(&g, s.rows, s.cols)
				for i := range m.Data {
					m.Data[i] *= 8 // logits of a few units either way
				}
				be.with(b, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// From the second pass on the rows are probabilities,
						// which the softmax maps to probabilities: the same
						// work per row.
						SoftmaxRows(m)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.rows), "ns/row")
			})
		}
		for _, n := range axpyLengths {
			b.Run(fmt.Sprintf("%s/axpy/%d", be.name, n), func(b *testing.B) {
				g := lcg(1)
				x, y := randVec(&g, n), randVec(&g, n)
				be.with(b, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// A step small enough that y stays normal over any b.N.
						Axpy(-1e-9, x, y)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		}
	}
}
