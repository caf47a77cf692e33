package xrand

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependentOfCallOrder(t *testing.T) {
	root1 := New(7)
	root2 := New(7)

	// Consume from root1's own stream before splitting; split streams must
	// be unaffected because Split is a pure function of (seed, name).
	for i := 0; i < 10; i++ {
		root1.Float64()
	}
	s1 := root1.Split("clients")
	s2 := root2.Split("clients")
	for i := 0; i < 50; i++ {
		if s1.Float64() != s2.Float64() {
			t.Fatalf("split stream depends on parent consumption at draw %d", i)
		}
	}
}

func TestSplitDistinctNames(t *testing.T) {
	root := New(7)
	a := root.Split("a")
	b := root.Split("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("distinct split names produced identical streams")
	}
}

func TestSplitIndex(t *testing.T) {
	root := New(99)
	a := root.SplitIndex("client", 3)
	b := root.SplitIndex("client", 4)
	c := root.SplitIndex("client", 3)
	if a.Float64() == b.Float64() {
		t.Error("different indexes should give different streams")
	}
	a2 := root.SplitIndex("client", 3)
	_ = c
	if a2.Seed() != a.Seed() {
		t.Error("same index should give the same seed")
	}
}

func TestIntRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(15, 25)
		if v < 15 || v > 25 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if got := New(2).IntRange(5, 5); got != 5 {
		t.Fatalf("degenerate range: got %d want 5", got)
	}
}

func TestIntRangePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	New(1).IntRange(3, 2)
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	r := New(5)
	weights := []float64{0, 0, 1, 0}
	for i := 0; i < 200; i++ {
		if got := r.WeightedChoice(weights); got != 2 {
			t.Fatalf("all mass on index 2, got %d", got)
		}
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	r := New(11)
	weights := []float64{1, 3}
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("weighted choice proportion off: got %.3f want 0.75±0.02", frac)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	r := New(3)
	// All-zero weights fall back to uniform over all indexes.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[r.WeightedChoice([]float64{0, 0, 0})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform fallback should cover all indexes, saw %v", seen)
	}
	// NaN and +Inf weights are ignored rather than hijacking the draw.
	for i := 0; i < 100; i++ {
		got := r.WeightedChoice([]float64{math.NaN(), 1, math.Inf(1)})
		if got != 1 {
			t.Fatalf("NaN/Inf weights must be ignored, got index %d", got)
		}
	}
}

func TestWeightedChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty weights")
		}
	}()
	New(1).WeightedChoice(nil)
}

func TestWeightedChoiceInBoundsQuick(t *testing.T) {
	r := New(17)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		i := r.WeightedChoice(raw)
		return i >= 0 && i < len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(8)
	got := r.SampleWithoutReplacement(10, 4)
	if len(got) != 4 {
		t.Fatalf("want 4 samples, got %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("sample out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample: %d", v)
		}
		seen[v] = true
	}
	all := r.SampleWithoutReplacement(5, 99)
	if len(all) != 5 {
		t.Fatalf("k>n should return all n, got %d", len(all))
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(21)
	for _, alpha := range []float64{0.1, 0.5, 1, 10} {
		v := r.Dirichlet(alpha, 20)
		sum := 0.0
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative Dirichlet component: %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet(alpha=%v) sums to %v", alpha, sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	r := New(22)
	// Low alpha concentrates mass; high alpha spreads it.
	low := r.Dirichlet(0.05, 10)
	maxLow := 0.0
	for _, v := range low {
		if v > maxLow {
			maxLow = v
		}
	}
	highMax := 0.0
	const trials = 50
	for i := 0; i < trials; i++ {
		high := r.Dirichlet(100, 10)
		for _, v := range high {
			if v > highMax {
				highMax = v
			}
		}
	}
	if highMax > 0.5 {
		t.Fatalf("Dirichlet(100) should be near-uniform, max component %v", highMax)
	}
}

func TestGammaPositive(t *testing.T) {
	r := New(23)
	for _, shape := range []float64{0.1, 0.5, 1, 2, 10} {
		for i := 0; i < 100; i++ {
			if g := r.Gamma(shape); g < 0 || math.IsNaN(g) {
				t.Fatalf("Gamma(%v) produced %v", shape, g)
			}
		}
	}
}

func TestGammaMean(t *testing.T) {
	r := New(24)
	const shape, n = 3.0, 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Gamma(shape)
	}
	mean := sum / n
	if math.Abs(mean-shape) > 0.1 {
		t.Fatalf("Gamma(%v) sample mean %v, want ≈%v", shape, mean, shape)
	}
}

func TestLogNormalIntBounds(t *testing.T) {
	r := New(25)
	for i := 0; i < 1000; i++ {
		v := r.LogNormalInt(4, 2, 10, 500)
		if v < 10 || v > 500 {
			t.Fatalf("LogNormalInt out of [10,500]: %d", v)
		}
	}
}

func TestNormalVec(t *testing.T) {
	r := New(26)
	v := r.NormalVec(10000, 2, 3)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("NormalVec mean %v, want ≈2", mean)
	}
}

// TestSplitSeedIsFNV pins the seed derivation to hash/fnv's FNV-64a over the
// seed's and the index's eight little-endian bytes, as Split and SplitIndex
// computed it before the derivation was spelled out.
func TestSplitSeedIsFNV(t *testing.T) {
	word := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64} {
		for _, name := range []string{"", "train", "async-event", "a name longer than thirty-two bytes"} {
			h := fnv.New64a()
			h.Write(word(uint64(seed)))
			h.Write([]byte(name))
			if got, want := SplitSeed(seed, name), int64(h.Sum64()); got != want {
				t.Fatalf("SplitSeed(%d, %q) = %d, want %d", seed, name, got, want)
			}
			for _, index := range []int{0, 7, -3, math.MaxInt} {
				h := fnv.New64a()
				h.Write(word(uint64(seed)))
				h.Write([]byte(name))
				h.Write(word(uint64(index)))
				if got, want := SplitIndexSeed(seed, name, index), int64(h.Sum64()); got != want {
					t.Fatalf("SplitIndexSeed(%d, %q, %d) = %d, want %d", seed, name, index, got, want)
				}
			}
		}
	}
}

// TestReseedEqualsNew holds a re-seeded register to New(seed) after any
// prior use: uniform draws, permutations, shuffles, normals in bulk past a
// whole 273-word pass (so every register word was touched and some were
// written twice) and rand.Rand's Read, which leaves bytes of a word pending.
// Seeds cover every branch of the seed normalisation: zero, negatives and a
// multiple of 2³¹−1, which the source maps to 89482311 as math/rand does.
func TestReseedEqualsNew(t *testing.T) {
	seeds := []int64{0, 1, -1, -42, int32max, 3 * int32max, -int32max, 89482311, math.MinInt64, math.MaxInt64, SplitSeed(7, "x")}
	uses := map[string]func(r *RNG){
		"fresh":   func(*RNG) {},
		"float64": func(r *RNG) { r.Float64() },
		"intn":    func(r *RNG) { r.Intn(1000); r.Intn(1 << 40) },
		"perm":    func(r *RNG) { r.Perm(700) },
		"shuffle": func(r *RNG) { r.Shuffle(50, func(int, int) {}) },
		"normals": func(r *RNG) { r.NormFloat64s(make([]float64, 1500)); r.NormFloat64() },
		"read":    func(r *RNG) { r.src.Read(make([]byte, 3)) },
	}
	eachPath(t, func() {
		for name, use := range uses {
			for _, prior := range seeds {
				for _, seed := range seeds {
					r := New(prior)
					use(r)
					r.Reseed(seed)
					if r.Seed() != seed {
						t.Fatalf("%s: Seed() = %d after Reseed(%d)", name, r.Seed(), seed)
					}
					want := New(seed)
					for k := 0; k < 3; k++ {
						got, exp := make([]byte, 5), make([]byte, 5)
						r.src.Read(got)
						want.src.Read(exp)
						if string(got) != string(exp) {
							t.Fatalf("%s, seed %d after %d: Read = %x, want %x", name, seed, prior, got, exp)
						}
					}
					sameStream(t, r, &want.src, interleaved)
				}
			}
		}
	})
}
