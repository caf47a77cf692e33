package xrand

import "math"

// rn is where the ziggurat's base strip meets its tail.
const rn = 3.442619855899

// NormFloat64s fills dst with standard normal variates: exactly the values,
// and the stream position, of len(dst) calls to NormFloat64.
//
// It is math/rand's ziggurat (rand.Rand.NormFloat64) run in one loop over
// the generator's register: words come from source.advance in runs of up to
// 273, not through rand.Rand and the Source interface one call at a time. A
// run never reaches past the draws dst still needs (each value takes at least
// one word), so nothing is left drawn ahead for the next call of any method.
func (r *RNG) NormFloat64s(dst []float64) {
	s := &r.source
	var run []int64
	for k := 0; k < len(dst); {
		if len(run) == 0 {
			run = s.advance(len(dst) - k)
		}
		if useAVX2 {
			// Four draws at a time up to the first the fast path rejects,
			// which the loop below takes.
			_ = dst[k+len(run)-1] // a run never outlasts dst
			m := normAVX2(&dst[k], &run[0], len(run))
			k += m
			if run = run[:len(run)-m]; len(run) == 0 {
				continue
			}
		}
		last := len(run) - 1
		j := int32(run[last] >> 31) // rand.Rand.Uint32, made signed
		run = run[:last]
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			// Better than 99 % of draws end here.
			dst[k] = x
			k++
			continue
		}
		var ok bool
		if x, ok, run = s.ziggTail(j, x, run, len(dst)-k); ok {
			dst[k] = x
			k++
		}
	}
}

// NormFloat64 returns a standard normal variate: NormFloat64s of one, with
// the ziggurat's first word drawn as a single step (through NormFloat64s and
// a one-word pass a draw costs about twice as much).
func (r *RNG) NormFloat64() float64 {
	s := &r.source
	for {
		j := int32(s.Uint64() >> 31)
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if x, ok, _ := s.ziggTail(j, x, nil, 1); ok {
			return x
		}
	}
}

// ziggTail is the ziggurat's rare path for the draw j with fast-path value x:
// the base strip's tail (i == 0) or the wedge test. It takes its uniforms from
// run, refilling it with at most left words, and reports whether the draw is
// accepted; a rejected draw starts over with a new j. Every product is
// rounded before it is added (float64(…), float32(…)), as amd64 computes it,
// so no platform fuses one into a multiply-add.
func (s *source) ziggTail(j int32, x float64, run []int64, left int) (float64, bool, []int64) {
	uniform := func() float64 { // rand.Rand.Float64
		for {
			if len(run) == 0 {
				run = s.advance(left)
			}
			w := run[len(run)-1]
			run = run[:len(run)-1]
			if f := float64(w&(1<<63-1)) / (1 << 63); f != 1 {
				return f
			}
		}
	}
	i := j & 0x7F
	if i == 0 {
		for {
			x = float64(-math.Log(uniform()) * (1.0 / rn))
			y := -math.Log(uniform())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return rn + x, true, run
		}
		return -rn - x, true, run
	}
	wedge := fn[i] + float32(float32(uniform())*(fn[i-1]-fn[i]))
	if below, ok := squeeze[i].decide(x, wedge); ok {
		return x, below, run
	}
	return x, wedge < float32(math.Exp(-.5*x*x)), run
}

// A strip's squeeze holds exp(−x²/2) between two lines over the |x| its wedge
// test sees, [kn[i]·wn[i], 2³¹·wn[i]]: there the curve is concave (|x| ≤ 1)
// or convex (|x| ≥ 1), so its chord lies on one side of it and its tangent at
// the midpoint on the other (McFarland's modified ziggurat, arXiv:1403.6870).
// Each line is value + slope·(|x| − mid), moved out by a margin (squeeze).
type strip struct {
	mid, lower, lowerSlope, upper, upperSlope float64
}

// decide settles the wedge test wedge < float32(math.Exp(−x²/2)) from the
// squeeze alone where it can: below the lower line the test accepts, at or
// above the upper one it rejects, and in between ok is false. Rounding both
// sides to float32 keeps the order, and the margin covers math.Exp's error
// and the lines' own rounding, so a decided test ends as math.Exp's would.
func (s *strip) decide(x float64, wedge float32) (below, ok bool) {
	d := math.Abs(x) - s.mid
	if wedge < float32(s.lower+float64(s.lowerSlope*d)) {
		return true, true
	}
	if wedge >= float32(s.upper+float64(s.upperSlope*d)) {
		return false, true
	}
	return false, false
}

// squeeze[i] is strip i's squeeze. Strip 0 has no wedge (its rare path is the
// tail), and the one strip whose range straddles |x| = 1 decides nothing.
var squeeze = func() (sq [128]strip) {
	f := func(x float64) float64 { return math.Exp(-.5 * x * x) }
	for i := 1; i < len(sq); i++ {
		lo, hi := float64(float64(kn[i])*float64(wn[i])), float64((1<<31)*float64(wn[i]))
		mid := (lo + hi) / 2
		// A float32 ulp of the strip's largest value: far wider than
		// math.Exp's error (< 1 float64 ulp) and the lines' rounding.
		margin := float64(f(lo) * 0x1p-23)
		// Halving is a product to the compiler: rounded, it cannot fuse
		// into the margin's add on arm64.
		chord, chordSlope := float64((f(lo)+f(hi))/2), (f(hi)-f(lo))/(hi-lo)
		tangent, tangentSlope := f(mid), float64(-mid*f(mid))
		switch {
		case hi <= 1: // concave: the chord below, the tangent above
			sq[i] = strip{mid, chord - margin, chordSlope, tangent + margin, tangentSlope}
		case lo >= 1: // convex: the tangent below, the chord above
			sq[i] = strip{mid, tangent - margin, tangentSlope, chord + margin, chordSlope}
		default:
			sq[i] = strip{mid, math.Inf(-1), 0, math.Inf(1), 0}
		}
	}
	return sq
}()

// absInt32 is |i| without a branch: a draw's sign is a coin toss.
func absInt32(i int32) uint32 {
	m := i >> 31
	return uint32(i ^ m - m)
}
