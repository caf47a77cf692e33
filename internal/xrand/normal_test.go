package xrand

import (
	"math"
	"testing"
)

// TestWedgeSqueezeMatchesExp holds every strip's squeeze to the test it
// stands in for, wedge < float32(math.Exp(−x²/2)), over a grid of the draws
// that reach the wedge (j of the strip with |j| ≥ kn[i], both signs, both
// ends included) and of wedge heights: evenly spaced uniforms, and the float32
// neighbours of the lower line, the upper line and the exact value at each x.
// A decided test must end as math.Exp's does; and the squeeze must decide
// most of the evenly spaced ones, or it saves nothing.
func TestWedgeSqueezeMatchesExp(t *testing.T) {
	const steps = 96
	var grid, decided int
	for i := int32(1); i < 128; i++ {
		sq := &squeeze[i]
		first := int64(kn[i])&^0x7F | int64(i) // the smallest |j| of the strip ≥ kn[i]
		if first < int64(kn[i]) {
			first += 128
		}
		for s := 0; s <= steps; s++ {
			mag := first + (1<<31-1-first)*int64(s)/steps&^0x7F
			for _, j := range []int64{mag, -mag, -(mag + 128 - 2*int64(i))} {
				if j < math.MinInt32 || j > math.MaxInt32 || int32(j)&0x7F != i || absInt32(int32(j)) < kn[i] {
					continue
				}
				x := float64(j) * float64(wn[i])
				exp := float32(math.Exp(-.5 * x * x))
				d := math.Abs(x) - sq.mid
				var wedges []float32
				for u := 0; u <= steps; u++ {
					wedges = append(wedges, fn[i]+float32(float32(float64(u)/steps)*(fn[i-1]-fn[i])))
				}
				even := len(wedges)
				for _, edge := range []float32{float32(sq.lower + float64(sq.lowerSlope*d)), float32(sq.upper + float64(sq.upperSlope*d)), exp} {
					lo, hi := edge, edge
					for range 3 {
						lo, hi = math.Nextafter32(lo, float32(math.Inf(-1))), math.Nextafter32(hi, float32(math.Inf(1)))
						wedges = append(wedges, lo, hi)
					}
					wedges = append(wedges, edge)
				}
				for k, w := range wedges {
					below, ok := sq.decide(x, w)
					if ok && below != (w < exp) {
						t.Fatalf("strip %d, j %d (x %v): wedge %v decided below=%v, math.Exp says %v", i, j, x, w, below, w < exp)
					}
					if k < even {
						grid++
						if ok {
							decided++
						}
					}
				}
			}
		}
	}
	if share := float64(decided) / float64(grid); share < 0.95 {
		t.Errorf("the squeeze decides %.3f of the evenly spaced wedge tests; want at least 0.95", share)
	} else {
		t.Logf("the squeeze decides %.4f of %d evenly spaced wedge tests", share, grid)
	}
}
