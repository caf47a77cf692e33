package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream makes the calls ops names on both generators, through
// rand.Rand or, for the normals, through the RNG, and fails at the first
// result that differs. Each op byte picks a method (op % 9) and an argument
// or repeat count (op / 9), so one call can run hundreds of draws and walk
// either generator across the register's first-touch and refill boundaries.
func sameStream(t testing.TB, rng *RNG, want *rand.Rand, ops []byte) {
	t.Helper()
	got := &rng.src
	for i, op := range ops {
		arg := int(op / 9)
		var g, w any
		switch op % 9 {
		case 0:
			for k := 0; k <= 8*arg; k++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("op %d: Int63 draw %d: got %d, want %d", i, k, g, w)
				}
			}
			continue
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			// 1 … 16, then past 2³¹, where (on 64 bits) Intn switches to Int63n.
			n := arg + 1
			if arg >= 16 {
				n = math.MaxInt - arg*12345
			}
			g, w = got.Intn(n), want.Intn(n)
		case 4:
			g, w = math.Float64bits(rng.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 5:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 6:
			gp, wp := got.Perm(arg), want.Perm(arg)
			for j := range gp {
				if gp[j] != wp[j] {
					t.Fatalf("op %d: Perm(%d) = %v, want %v", i, arg, gp, wp)
				}
			}
			continue
		case 7:
			gs, ws := make([]int, arg), make([]int, arg)
			for j := range gs {
				gs[j], ws[j] = j, j
			}
			got.Shuffle(arg, func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
			want.Shuffle(arg, func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
			for j := range gs {
				if gs[j] != ws[j] {
					t.Fatalf("op %d: Shuffle(%d) = %v, want %v", i, arg, gs, ws)
				}
			}
			continue
		case 8:
			// The bulk draw: 0 … 28 normals in one call.
			z := make([]float64, arg)
			rng.NormFloat64s(z)
			for j, g := range z {
				if w := want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("op %d: NormFloat64s(%d)[%d] = %v, want %v", i, arg, j, g, w)
				}
			}
			continue
		}
		if g != w {
			t.Fatalf("op %d (method %d, arg %d): got %v, want %v", i, op%9, arg, g, w)
		}
	}
}

// interleaved calls every method several times, in a fixed mixed order.
var interleaved = func() []byte {
	var ops []byte
	for i := 0; i < 108; i++ {
		ops = append(ops, byte(i%9+9*(i*7%28)))
	}
	return ops
}()

// TestSourceMatchesMathRand pins the stream, not only the goldens built on
// it: for seeds on every branch of math/rand's seed normalisation and 2 000
// drawn ones, a generator drawn n times and then through every rand.Rand
// method equals rand.NewSource's. The draw counts straddle the register's
// first-touch boundaries: tap's last fresh word (272/273), feed's (333/334)
// and the first wrap of the register (606/607).
func TestSourceMatchesMathRand(t *testing.T) {
	eachPath(t, func() { sourceMatchesMathRand(t) })
}

func sourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1,
		2 * int32max, -2 * int32max, 89482311, int32max * int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	fixed := len(seeds)
	draw := rand.New(rand.NewSource(2024))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(draw.Uint64()))
	}
	for i, seed := range seeds {
		counts := []int{0, 272, 273, 333, 334, 606, 607}
		if i < fixed || i%200 == 0 {
			counts = append(counts, 10_000)
		}
		for _, n := range counts {
			rng, want := New(seed), rand.New(rand.NewSource(seed))
			got := &rng.src
			for k := 0; k < n; k++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: draw %d of %d: got %d, want %d", seed, k, n, g, w)
				}
			}
			sameStream(t, rng, want, interleaved)
		}
	}
}

// FuzzSourceMatchesMathRand: any seed, any sequence of rand.Rand calls.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(-int32max), []byte{0xfc, 0xfc, 0xfc, 0x3a})
	f.Add(int64(7), []byte{0xfc, 0xfc, 0xfb, 2, 0xfb, 3, 0xfb, 0xfb})
	f.Add(int64(math.MinInt64), interleaved)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		eachPath(t, func() { sameStream(t, New(seed), rand.New(rand.NewSource(seed)), ops) })
	})
}

// TestNormFloat64sMatchesMathRand starts a bulk draw at every first-touch
// and wrap boundary of the register, in lengths below, at and past one
// pass (273 words), and checks values and the stream position after it.
func TestNormFloat64sMatchesMathRand(t *testing.T) {
	eachPath(t, func() { normFloat64sMatchesMathRand(t) })
}

func normFloat64sMatchesMathRand(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, n := range []int{0, 1, 272, 273, 333, 334, 606, 607} {
			for _, size := range []int{1, 64, 273, 274, 700} {
				rng, want := New(seed), rand.New(rand.NewSource(seed))
				for k := 0; k < n; k++ {
					rng.Int63()
					want.Int63()
				}
				z := make([]float64, size)
				rng.NormFloat64s(z)
				for j, g := range z {
					if w := want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d after %d draws: NormFloat64s(%d)[%d] = %v, want %v", seed, n, size, j, g, w)
					}
				}
				if g, w := rng.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d after %d draws, NormFloat64s(%d): next Int63 %d, want %d", seed, n, size, g, w)
				}
			}
		}
	}
}

// countingSource is rand.NewSource's generator, keeping every word drawn.
type countingSource struct {
	rand.Source
	words []int64
}

func (c *countingSource) Int63() int64 {
	w := c.Source.Int63()
	c.words = append(c.words, w)
	return w
}

// TestNormFloat64sTails pins bulk draws that leave the ziggurat's fast path:
// the base strip's tail (i == 0) and the wedge test, accepted and rejected.
// The cases are checked to reach each branch, read off math/rand's own
// draws: a value that took more than one word went past the fast path, and
// its first word's low seven bits of j say which way.
func TestNormFloat64sTails(t *testing.T) {
	eachPath(t, func() { normFloat64sTails(t) })
}

func normFloat64sTails(t *testing.T) {
	for _, tc := range []struct {
		seed                    int64
		size                    int
		base, wedgeIn, wedgeOut int // draws down each branch
	}{
		// Each of the first four ends on the draw it names, so the branch
		// refills its run one word at a time; the first three also lie
		// within the register's first-touch seeding (334 words).
		{1, 5, 0, 0, 1},      // draw 4 fails the wedge test
		{1, 9, 0, 1, 1},      // draw 8 passes it
		{2024, 234, 1, 2, 2}, // draw 233 takes the base strip's tail
		{1, 884, 1, 16, 13},  // so does draw 883
		{1, 4000, 3, 51, 54},
	} {
		src := &countingSource{Source: rand.NewSource(tc.seed)}
		want := rand.New(src)
		z := make([]float64, tc.size)
		New(tc.seed).NormFloat64s(z)
		var base, wedgeIn, wedgeOut int
		for j, g := range z {
			first := len(src.words)
			w := want.NormFloat64()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: NormFloat64s(%d)[%d] = %v, want %v", tc.seed, tc.size, j, g, w)
			}
			took := src.words[first:]
			if len(took) == 1 {
				continue
			}
			switch i := int32(took[0]>>31) & 0x7F; {
			case i == 0:
				base++
			case len(took) == 2:
				wedgeIn++
			default:
				wedgeOut++
			}
		}
		if base != tc.base || wedgeIn != tc.wedgeIn || wedgeOut != tc.wedgeOut {
			t.Errorf("seed %d size %d: base strip, wedge in, wedge out = %d, %d, %d draws; the case pins %d, %d, %d",
				tc.seed, tc.size, base, wedgeIn, wedgeOut, tc.base, tc.wedgeIn, tc.wedgeOut)
		}
	}
}

var sink float64

// BenchmarkSplitIndex is what a split leaf costs: derive a stream and draw
// twenty values from it, as an event's or a link's stream does.
func BenchmarkSplitIndex(b *testing.B) {
	b.ReportAllocs()
	root := New(42)
	i := 0
	for b.Loop() {
		r := root.SplitIndex("leaf", i)
		for k := 0; k < 20; k++ {
			sink += r.Float64()
		}
		i++
	}
}

// BenchmarkDraw is the per-draw cost once seeded, beside math/rand's own
// source in the same binary. NormFloat64s/xrand is ns per value, drawn in
// rows of 64 as the generators draw a sample.
func BenchmarkDraw(b *testing.B) {
	b.Run("NormFloat64s/xrand", func(b *testing.B) {
		r, row := New(1), make([]float64, 64)
		for i := 0; i < b.N; i += len(row) {
			r.NormFloat64s(row[:min(len(row), b.N-i)])
			sink += row[0]
		}
	})
	type drawer interface {
		Int63() int64
		NormFloat64() float64
	}
	for _, g := range []struct {
		name string
		rng  drawer
	}{
		{"xrand", New(1)},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run("Int63/"+g.name, func(b *testing.B) {
			for b.Loop() {
				sink += float64(g.rng.Int63())
			}
		})
		b.Run("NormFloat64/"+g.name, func(b *testing.B) {
			for b.Loop() {
				sink += g.rng.NormFloat64()
			}
		})
	}
}
