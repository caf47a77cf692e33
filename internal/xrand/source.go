package xrand

// source is math/rand's Go 1 generator (x[n] = x[n-273] + x[n-607]) and draws
// what rand.NewSource(seed) draws, word for word. Only the seeding differs:
// math/rand fills all 607 words up front with 1 841 sequential Lehmer steps;
// here a draw fills the words it is first to read, each in closed form, so a
// split that draws 20 values seeds 40 words. From draw 334 on all are filled.
type source struct {
	tap, feed int
	unfilled  int    // draws left that read a word for the first time
	x0        uint64 // the normalised seed, where the Lehmer chain starts
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	seedSkip = 20        // Lehmer steps before the first word's three
)

// lehmer[k] = 48271ᵏ mod 2³¹−1: k seedrand steps take x to lehmer[k]·x mod 2³¹−1.
var lehmer = func() (p [seedSkip + 1 + 3*rngLen]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = mulmod(p[k-1], 48271)
	}
	return p
}()

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1), without a division.
func mulmod(a, b uint64) uint64 {
	p := a * b
	t := p&int32max + p>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// Seed normalises seed as math/rand does and marks every word unfilled.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.unfilled = rngLen - rngTap
}

// Int63 and Uint64 each carry the draw body: rand.Rand calls them through an
// interface, so one calling the other would cost every draw a second call.
func (s *source) Int63() int64 {
	if s.unfilled > 0 {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

func (s *source) Uint64() uint64 {
	if s.unfilled > 0 {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill seeds the words draw k (k < 334) reads first: 333−k through feed, and
// 606−k through tap while k < 273; later taps read words feed filled.
//
//go:noinline
func (s *source) fill() {
	s.unfilled--
	s.vec[s.feed-1] = s.word(s.feed - 1)
	if t := (s.tap + rngLen - 1) % rngLen; t >= rngLen-rngTap {
		s.vec[t] = s.word(t)
	}
}

// word is register word i as math/rand's Seed leaves it: the chain after
// 21+3i, 22+3i and 23+3i steps, packed into one word, xored with cooked[i].
func (s *source) word(i int) int64 {
	p := lehmer[seedSkip+1+3*i:]
	u := mulmod(p[0], s.x0)<<40 ^ mulmod(p[1], s.x0)<<20 ^ mulmod(p[2], s.x0)
	return int64(u) ^ cooked[i]
}
