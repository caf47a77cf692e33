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
	return x, wedge < float32(math.Exp(-.5*x*x)), run
}

// absInt32 is |i| without a branch: a draw's sign is a coin toss.
func absInt32(i int32) uint32 {
	m := i >> 31
	return uint32(i ^ m - m)
}
