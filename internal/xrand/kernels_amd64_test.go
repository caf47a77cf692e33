//go:build !purego

package xrand

import (
	"math"
	"math/rand"
	"testing"

	"github.com/specdag/specdag/internal/mathx"
)

// The assembly bodies are held to the Go loops word for word and bit for bit:
// the stream tests run once per path (eachPath), and the tests below feed
// each kernel what the stream tests reach only by chance.

// eachPath runs f once on the Go loops and once on the assembly, the latter
// skipped with a message when the CPU lacks AVX2; the log says which leg a
// failure is in.
func eachPath(t testing.TB, f func()) {
	t.Helper()
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = false
	t.Log("xrand: generic")
	f()
	if !mathx.HasAVX2() {
		t.Log("CPU lacks AVX2: only the Go loops run here, vector leg skipped")
		return
	}
	useAVX2 = true
	t.Log("xrand: avx2")
	f()
}

// needAVX2 skips a test of the assembly on a CPU without AVX2.
func needAVX2(t *testing.T) {
	t.Helper()
	if !mathx.HasAVX2() {
		t.Skip("CPU lacks AVX2: the assembly cannot run here")
	}
}

// TestAdvanceMatchesGo: a pass of every length from 1 to 273, made from a
// fresh register (seeding pending), from one part seeded and from one fully
// seeded, leaves the same run and the same generator on both paths.
func TestAdvanceMatchesGo(t *testing.T) {
	needAVX2(t)
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, seed := range []int64{1, -7, 89482311, math.MaxInt64} {
		for _, before := range []int{0, 1, 3, 100, 271, 333, 334, 600, 1000} {
			for n := 1; n <= rngTap; n++ {
				var got, want source
				for _, s := range []*source{&want, &got} {
					s.Seed(seed)
					for range before {
						s.Int63()
					}
				}
				useAVX2 = false
				w := append([]int64(nil), want.advance(n)...)
				useAVX2 = true
				g := got.advance(n)
				if len(g) != len(w) {
					t.Fatalf("seed %d after %d draws: advance(%d) ran %d words, want %d", seed, before, n, len(g), len(w))
				}
				for k := range w {
					if g[k] != w[k] {
						t.Fatalf("seed %d after %d draws: advance(%d)[%d] = %d, want %d", seed, before, n, k, g[k], w[k])
					}
				}
				if got != want {
					t.Fatalf("seed %d after %d draws: advance(%d) left a different generator", seed, before, n)
				}
			}
		}
	}
}

// TestSeedWordsMatchesGo: the vector seeding of spans of four words and more,
// starting all over the register, on seeds at both ends of the normalised
// range, equals source.word and writes nothing outside the span.
func TestSeedWordsMatchesGo(t *testing.T) {
	needAVX2(t)
	for _, seed := range []int64{1, 2, int32max - 1, 89482311, 20240607} {
		var s source
		s.Seed(seed)
		for lo := 0; lo < rngLen; lo += 37 {
			for n := 4; lo+n <= rngLen; n += 4 * (1 + n/12) {
				clear(s.vec[:])
				seedAVX2(&s.vec[lo], &lehmer[0][lo], &cooked[lo], n, s.x0)
				for i, v := range s.vec {
					want := int64(0)
					if i >= lo && i < lo+n {
						want = s.word(i)
					}
					if v != want {
						t.Fatalf("seed %d, words [%d, %d): word %d = %d, want %d", seed, lo, lo+n, i, v, want)
					}
				}
			}
		}
	}
}

// fastPath is the reference for normAVX2: the Go fast path over run, last
// word first, up to the first rejected draw.
func fastPath(run []int64) []float64 {
	var out []float64
	for k := len(run) - 1; k >= 0; k-- {
		j := int32(run[k] >> 31)
		i := j & 0x7F
		if absInt32(j) >= kn[i] {
			break
		}
		out = append(out, float64(j)*float64(wn[i]))
	}
	return out
}

// wordOf is a register word whose draw has the given j: j in bits 31–62,
// noise in the rest.
func wordOf(j int32, noise uint64) int64 {
	return int64(uint64(uint32(j))<<31 | noise&(1<<31-1) | noise&(1<<63))
}

// stripJs returns draws of strip i at the fast path's edges: each of 0, 1,
// kn[i]−1, kn[i] and 2³¹−1 in magnitude, of both signs, moved to the nearest
// j of the strip on either side.
func stripJs(i int32) []int32 {
	var js []int32
	for _, v := range []int64{0, 1, int64(kn[i]) - 1, int64(kn[i]), 1<<31 - 1} {
		for _, target := range []int64{v, -v} {
			below := target&^0x7F | int64(i) // target's 128-block, strip i
			for _, j := range []int64{below - 128, below, below + 128} {
				if j >= math.MinInt32 && j <= math.MaxInt32 {
					js = append(js, int32(j))
				}
			}
		}
	}
	return js
}

// TestNormKernelCraftedWords feeds normAVX2 words with chosen draws: the
// fast path's edges in every strip (0, ±1, MinInt32, MaxInt32 and j on
// either side of ±kn[i]), a rejected draw in each lane of a group, and every
// run length from 1 to 273. Values and counts must be the Go fast path's, and
// nothing past the values written may change.
func TestNormKernelCraftedWords(t *testing.T) {
	needAVX2(t)
	noise := rand.New(rand.NewSource(9))
	accepted := func() int64 {
		for {
			w := noise.Int63() ^ int64(noise.Uint64()&(1<<63))
			if j := int32(w >> 31); absInt32(j) < kn[j&0x7F] {
				return w
			}
		}
	}
	check := func(label string, run []int64) {
		t.Helper()
		const canary = 0x7ff8dead0000beef
		dst := make([]float64, len(run)+4)
		for k := range dst {
			dst[k] = math.Float64frombits(canary)
		}
		want := fastPath(run)
		m := normAVX2(&dst[0], &run[0], len(run))
		if m != len(want) {
			t.Fatalf("%s: %d values, want %d", label, m, len(want))
		}
		for k, v := range dst {
			w := uint64(canary)
			if k < m {
				w = math.Float64bits(want[k])
			}
			if math.Float64bits(v) != w {
				t.Fatalf("%s: dst[%d] = %x, want %x (%d values)", label, k, math.Float64bits(v), w, m)
			}
		}
	}

	// Each crafted draw, in each lane of a group of four accepted ones.
	js := []int32{0, 1, -1, math.MinInt32, math.MaxInt32}
	for i := int32(0); i < 128; i++ {
		js = append(js, stripJs(i)...)
	}
	for _, j := range js {
		for lane := 0; lane < 8; lane++ {
			run := make([]int64, 8)
			for k := range run {
				run[k] = accepted()
			}
			run[len(run)-1-lane] = wordOf(j, noise.Uint64())
			check("crafted j", run)
		}
	}

	// Every run length, all accepted and with one rejected draw anywhere.
	for n := 1; n <= rngTap; n++ {
		run := make([]int64, n)
		for k := range run {
			run[k] = accepted()
		}
		check("accepted run", run)
		for _, at := range []int{0, 1, 2, 3, n / 2, n - 1} {
			if at >= n {
				continue
			}
			saved := run[at]
			run[at] = wordOf(int32((kn[5]+128)&^0x7F|5), noise.Uint64()) // strip 5, just past kn[5]
			check("one rejected draw", run)
			run[at] = saved
		}
	}
}
