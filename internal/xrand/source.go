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

// lehmer[k][i] = 48271^(21+3i+k) mod 2³¹−1: m seedrand steps take x to
// 48271ᵐ·x mod 2³¹−1, and word i packs the chain after 21+3i, 22+3i and 23+3i
// steps. One row per step keeps four words' multipliers side by side.
var lehmer = func() (p [3][rngLen]uint64) {
	m := uint64(1)
	for range seedSkip + 1 {
		m = mulmod(m, 48271)
	}
	for i := range rngLen {
		for k := range p {
			p[k][i] = m
			m = mulmod(m, 48271)
		}
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

// advance makes up to n draws in one pass (n ≥ 1) and returns the words
// they drew, last first: the draws' order is run[len−1], run[len−2], ….
// Draw k+273 taps the word draw k wrote, so up to 273 draws depend on
// nothing the pass writes and the pass is a plain a[i] += b[i]. A pass also
// stops where feed or tap wraps, so while seeding is pending (feed is then
// the number of draws that read a fresh word) it reads only words its own
// draws touch first, and seeds those. The run aliases the register; no draw
// writes those words again for at least 334 draws.
func (s *source) advance(n int) (run []int64) {
	if s.feed == 0 {
		s.feed = rngLen
	}
	if s.tap == 0 {
		s.tap = rngLen
	}
	n = min(n, rngTap, s.feed, s.tap)
	f, t := s.feed-n, s.tap-n
	if s.unfilled > 0 {
		s.unfilled -= n
		s.seedWords(f, s.feed)
		s.seedWords(max(t, rngLen-rngTap), s.tap)
	}
	s.feed, s.tap = f, t
	run, tapped := s.vec[f:f+n], s.vec[t:t+n]
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		addAVX2(&run[0], &tapped[0], i)
	}
	for ; i < n; i++ {
		run[i] += tapped[i]
	}
	return run
}

// seedWords sets register words [lo, hi) to their seeded values.
func (s *source) seedWords(lo, hi int) {
	if useAVX2 && hi-lo >= 4 {
		n := (hi - lo) &^ 3
		seedAVX2(&s.vec[lo], &lehmer[0][lo], &cooked[lo], n, s.x0)
		lo += n
	}
	for i := lo; i < hi; i++ {
		s.vec[i] = s.word(i)
	}
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
	u := mulmod(lehmer[0][i], s.x0)<<40 ^ mulmod(lehmer[1][i], s.x0)<<20 ^ mulmod(lehmer[2][i], s.x0)
	return int64(u) ^ cooked[i]
}
