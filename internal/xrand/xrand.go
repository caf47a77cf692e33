// Package xrand provides deterministic, splittable random-number utilities
// for reproducible simulations.
//
// Every experiment in this repository derives all of its randomness from a
// single root seed. Sub-streams are created by name with Split, which hashes
// the parent seed together with the name, so that adding a new consumer of
// randomness does not perturb the streams of existing consumers.
//
// An RNG seeded with s draws Go 1 math/rand's stream, what
// rand.NewSource(s) draws, which the Go 1 compatibility promise holds fixed
// and every golden rests on. An RNG holds ~5 KB of state.
//
// Two pieces of math/rand are copied here, with their tables (cooked.go):
//
//   - The generator (source.go), whose register words are seeded on first
//     touch, not all in New, so a split that draws little costs little.
//     Float64, Intn, Perm, Shuffle and the other uniform draws reach it
//     through a rand.Rand, one Source call per word.
//   - The ziggurat for standard normals (normal.go). NormFloat64s runs it in
//     one loop straight over the register, which a pass advances up to 273
//     words at a time, so a generator's row of normals costs no interface
//     call per draw. NormFloat64, Normal, NormalVec and Gamma draw through the
//     same copy, so every normal in the repository has one definition. Its
//     wedge test rounds its float32 product explicitly, as every product
//     that feeds a sum does in the deterministic packages: arm64 would
//     otherwise fuse it into a multiply-add and draw different bits. Each
//     strip's squeeze, two lines either side of exp(−x²/2), settles more
//     than nine wedge tests in ten without math.Exp, always as math.Exp
//     would.
//
// On amd64 with AVX2 three loops have assembly bodies (kernels_amd64.s),
// selected by mathx's CPU probe: a pass's lagged add and its first-touch
// seeding, four words per instruction, and NormFloat64s' fast path, four
// draws at a time up to the first it rejects. They draw the same words and
// values as the Go loops, which remain the path everywhere else and the
// reference the tests hold the assembly to.
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random source with helpers used across the
// simulator. It is not safe for concurrent use; derive one RNG per goroutine
// with Split.
type RNG struct {
	seed   int64
	src    rand.Rand // draws from source
	source source
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	r := &RNG{seed: seed}
	r.source.Seed(seed)
	r.src = *rand.New(&r.source)
	return r
}

// Seed returns the seed this RNG was created with.
func (r *RNG) Seed() int64 { return r.seed }

// Split derives an independent RNG from this RNG's seed and a name.
// Splitting is a pure function of (seed, name): it does not advance or
// observe the parent stream, so call order cannot change results.
func (r *RNG) Split(name string) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(r.seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	return New(int64(h.Sum64()))
}

// SplitIndex derives an independent RNG from this RNG's seed, a name, and an
// integer index (e.g. a client ID or a round number).
func (r *RNG) SplitIndex(name string, index int) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(r.seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(index) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return New(int64(h.Sum64()))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + float64(std*r.NormFloat64())
}

// NormalVec fills a new length-n vector with N(mean, std^2) variates: the
// values of n calls to Normal, drawn in one NormFloat64s.
func (r *RNG) NormalVec(n int, mean, std float64) []float64 {
	v := make([]float64, n)
	r.NormFloat64s(v)
	for i, z := range v {
		v[i] = mean + float64(std*z)
	}
	return v
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.src.Intn(hi-lo+1)
}

// WeightedChoice returns an index sampled proportionally to weights.
// Non-positive weights are treated as zero. If all weights are zero (or the
// slice is empty after filtering) it falls back to a uniform choice.
// It panics on an empty slice.
func (r *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: WeightedChoice with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			total += w
		}
	}
	if total <= 0 {
		return r.src.Intn(len(weights))
	}
	x := r.src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			acc += w
		}
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement returns k distinct values from [0, n) in random
// order. If k >= n it returns a permutation of all n values.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	perm := r.Perm(n)
	return perm[:k]
}

// Gamma draws from a Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method. shape must be positive.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.src.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// Dirichlet draws from a symmetric Dirichlet distribution with concentration
// alpha over k categories. The result sums to 1.
func (r *RNG) Dirichlet(alpha float64, k int) []float64 {
	if k <= 0 {
		panic("xrand: Dirichlet with k <= 0")
	}
	v := make([]float64, k)
	total := 0.0
	for i := range v {
		v[i] = r.Gamma(alpha)
		total += v[i]
	}
	if total == 0 {
		for i := range v {
			v[i] = 1.0 / float64(k)
		}
		return v
	}
	for i := range v {
		v[i] /= total
	}
	return v
}

// LogNormalInt returns max(lo, round(exp(N(mu, sigma^2)))) capped at hi.
// It is used to draw per-client sample counts with a heavy tail, as in the
// FedProx synthetic dataset.
func (r *RNG) LogNormalInt(mu, sigma float64, lo, hi int) int {
	x := math.Exp(r.Normal(mu, sigma))
	n := int(math.Round(x))
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}
