package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream makes the calls ops names on both generators, through
// rand.Rand, and fails at the first result that differs. Each op byte picks a
// method (low three bits) and an argument or repeat count (the rest), so one
// call can run hundreds of draws and walk either generator across the
// register's first-touch boundaries.
func sameStream(t testing.TB, got, want *rand.Rand, ops []byte) {
	t.Helper()
	for i, op := range ops {
		arg := int(op >> 3)
		var g, w any
		switch op & 7 {
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
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
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
		}
		if g != w {
			t.Fatalf("op %d (method %d, arg %d): got %v, want %v", i, op&7, arg, g, w)
		}
	}
}

// interleaved calls every method several times, in a fixed mixed order.
var interleaved = func() []byte {
	var ops []byte
	for i := 0; i < 96; i++ {
		ops = append(ops, byte(i%8)|byte(i*7%32)<<3)
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
			got, want := &New(seed).src, rand.New(rand.NewSource(seed))
			for k := 0; k < n; k++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: draw %d of %d: got %d, want %d", seed, k, n, g, w)
				}
			}
			sameStream(t, got, want, interleaved)
		}
	}
}

// FuzzSourceMatchesMathRand: any seed, any sequence of rand.Rand calls.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-int32max), []byte{0xf8, 0xf8, 0xf8, 0x44})
	f.Add(int64(math.MinInt64), interleaved)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		sameStream(t, &New(seed).src, rand.New(rand.NewSource(seed)), ops)
	})
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
// source in the same binary.
func BenchmarkDraw(b *testing.B) {
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
