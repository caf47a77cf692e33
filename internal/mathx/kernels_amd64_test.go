//go:build !purego

package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The assembly bodies are held to the Go kernels bit for bit: same inputs
// through both, outputs compared with math.Float64bits. NaN payloads are the
// one thing outside the contract (kernels.go), so two NaNs compare equal.

// backend is one setting of the kernels' dispatch: the Go loops, the AVX2
// bodies, or the AVX-512 bodies (which run with the AVX2 ones beside them,
// as on a CPU that has both).
type backend struct {
	name         string
	avx2, avx512 bool
}

var (
	generic = backend{name: "generic"}
	avx2    = backend{name: "avx2", avx2: true}
	avx512  = backend{name: "avx512", avx2: true, avx512: true}
	// vectorBackends are the assembly paths, each held to generic.
	vectorBackends = []backend{avx2, avx512}
)

// available reports whether the CPU can run b.
func (b backend) available() bool {
	return (!b.avx2 || HasAVX2()) && (!b.avx512 || probeCPU().avx512())
}

// need skips the test, or the leg it is a subtest for, on a CPU that cannot
// run b.
func need(t testing.TB, b backend) {
	t.Helper()
	if !b.available() {
		t.Skipf("CPU lacks %s (or its OS does not save the registers): the %s leg cannot run here", b.name, b.name)
	}
}

// needAVX2 skips a test of the AVX2 bodies on a CPU without AVX2.
func needAVX2(t testing.TB) { need(t, avx2) }

// onBackend runs f with the kernels' dispatch forced to one path.
func onBackend(b backend, f func()) {
	defer func(a2, a512 bool) { useAVX2, useAVX512 = a2, a512 }(useAVX2, useAVX512)
	useAVX2, useAVX512 = b.avx2, b.avx512
	f()
}

// eachVector runs f as one subtest per assembly path, each skipped with a
// message when the CPU cannot run it.
func eachVector(t *testing.T, f func(t *testing.T, b backend)) {
	for _, b := range vectorBackends {
		t.Run(b.name, func(t *testing.T) {
			need(t, b)
			f(t, b)
		})
	}
}

// availableVectors are the assembly paths this CPU runs.
func availableVectors() []backend {
	var bs []backend
	for _, b := range vectorBackends {
		if b.available() {
			bs = append(bs, b)
		}
	}
	return bs
}

// TestCPUSelection pins the start-up decision as a function of the CPUID
// and XGETBV words: a CPU or hypervisor that reports AVX-512 but does not
// save its registers, or lacks a feature the bodies use, gets the AVX2
// bodies (or the Go loops) instead of an illegal instruction, and adding
// AVX-512 to the words changes nothing about the AVX2 answer.
func TestCPUSelection(t *testing.T) {
	const (
		ecx1  = cpuOSXSAVE | cpuAVX
		ebx7  = cpuAVX2 | cpuAVX512F
		xcr0  = 1 | xcr0YMM | xcr0ZMM
		noZMM = 1 | xcr0YMM
	)
	for _, c := range []struct {
		name         string
		w            cpuWords
		avx2, avx512 bool
	}{
		{"AVX2 and AVX-512, all state saved", cpuWords{7, ecx1, ebx7, xcr0}, true, true},
		{"AVX-512 with ZMM state off in XCR0", cpuWords{7, ecx1, ebx7, noZMM}, true, false},
		{"AVX-512 without the opmask state", cpuWords{7, ecx1, ebx7, xcr0 &^ (1 << 5)}, true, false},
		{"AVX-512 without ZMM16-31's state", cpuWords{7, ecx1, ebx7, xcr0 &^ (1 << 7)}, true, false},
		{"AVX-512 without AVX512F", cpuWords{7, ecx1, cpuAVX2 | 1<<17 | 1<<30 | 1<<31, xcr0}, true, false},
		{"AVX2 only", cpuWords{7, ecx1, cpuAVX2, noZMM}, true, false},
		{"AVX512F without AVX2", cpuWords{7, ecx1, cpuAVX512F, xcr0}, false, false},
		{"YMM state off", cpuWords{7, ecx1, ebx7, 1 | 1<<1 | xcr0ZMM}, false, false},
		{"no OSXSAVE, so XCR0 unread", cpuWords{7, cpuAVX, ebx7, 0}, false, false},
		{"no AVX", cpuWords{7, cpuOSXSAVE, ebx7, xcr0}, false, false},
		{"no leaf 7", cpuWords{6, ecx1, 0, xcr0}, false, false},
	} {
		if got := c.w.avx2(); got != c.avx2 {
			t.Errorf("%s: avx2() = %v, want %v", c.name, got, c.avx2)
		}
		if got := c.w.avx512(); got != c.avx512 {
			t.Errorf("%s: avx512() = %v, want %v", c.name, got, c.avx512)
		}
	}
	w := probeCPU()
	t.Logf("this CPU: %+v, backend %s", w, Backend())
	if HasAVX2() != w.avx2() || useAVX512 != w.avx512() {
		t.Errorf("HasAVX2() = %v and useAVX512 = %v, the words give %v and %v", HasAVX2(), useAVX512, w.avx2(), w.avx512())
	}
}

// canary is the bit pattern every backing array is filled with; a kernel that
// writes outside its output leaves a hole in it.
const canary = 0x7ff8dead0000beef

// arena hands out slices at odd offsets of one larger backing array, so no
// operand is 32-byte aligned and every operand is fenced by canaries.
type arena struct {
	back  []float64
	owned []bool
	used  int
}

func newArena(n int) *arena {
	a := &arena{back: make([]float64, n), owned: make([]bool, n)}
	fillBits(a.back, canary)
	return a
}

func (a *arena) vec(n int) []float64 {
	a.used += 3 // an odd offset, and the fence
	v := a.back[a.used : a.used+n : a.used+n]
	for i := 0; i < n; i++ {
		a.owned[a.used+i] = true
	}
	a.used += n
	return v
}

func (a *arena) matrix(rows, cols int) Matrix {
	return Matrix{Data: a.vec(rows * cols), Rows: rows, Cols: cols}
}

// fences fails the test if any element between the operands lost its canary.
func (a *arena) fences(t *testing.T, label string) {
	t.Helper()
	for i, v := range a.back {
		if !a.owned[i] && math.Float64bits(v) != canary {
			t.Fatalf("%s: wrote outside its output at backing[%d] = %x", label, i, math.Float64bits(v))
		}
	}
}

// fill draws normals-ish values and, when special is set, plants one of
// specials about every seventh element.
func fill(g *lcg, v []float64, special bool) {
	for i := range v {
		v[i] = g.next() + g.next() + g.next()
		if special && int(uint64(*g)>>33)%7 == 0 {
			v[i] = specials[int(uint64(*g)>>40)%len(specials)]
		}
	}
}

// zeroDeltas plants exact zeros in a delta matrix the ways the skip has to
// survive: 1 whole rows, 2 whole columns, 3 one in a block of four samples,
// 4 a scatter of +0 and -0.
func zeroDeltas(g *lcg, d Matrix, mode int) {
	for r := 0; r < d.Rows; r++ {
		for o := 0; o < d.Cols; o++ {
			var hit bool
			switch mode {
			case 1:
				hit = r%3 == 1
			case 2:
				hit = o%3 == 0
			case 3:
				hit = r%4 == (o+1)%4
			case 4:
				hit = int(uint64(*g)>>35)%3 == 0
				g.next()
			}
			if hit {
				d.Data[r*d.Cols+o] = math.Copysign(0, float64(1-2*((r+o)&1)))
			}
		}
	}
}

// kernelCase is one set of operands for all four kernels: the forward layer
// x·wᵀ+b → act, the backward pair on delta (rows×out), and the update
// y += alpha·w.
type kernelCase struct {
	rows, in, out int
	a             *arena
	x, delta      Matrix
	w, b          []float64
	alpha         float64
	// outputs
	act, prev Matrix
	wg, bg, y []float64
}

func newKernelCase(rows, in, out int) *kernelCase {
	c := &kernelCase{rows: rows, in: in, out: out}
	c.a = newArena(2*rows*in + 2*rows*out + 3*in*out + 2*out + 64)
	c.x, c.delta = c.a.matrix(rows, in), c.a.matrix(rows, out)
	c.w, c.b = c.a.vec(in*out), c.a.vec(out)
	c.act, c.prev = c.a.matrix(rows, out), c.a.matrix(rows, in)
	c.wg, c.bg, c.y = c.a.vec(in*out), c.a.vec(out), c.a.vec(in*out)
	return c
}

// run executes the kernels on one backend and returns copies of what they
// wrote. wg0/bg0 are the gradients' starting values (AccumGrads adds), and
// wg0 is also the y that Axpy adds to.
func (c *kernelCase) run(t *testing.T, b backend, relu bool, wg0, bg0 []float64) (act, wg, bg, prev, y []float64) {
	t.Helper()
	copy(c.wg, wg0)
	copy(c.bg, bg0)
	copy(c.y, wg0)
	fillBits(c.act.Data, canary)
	fillBits(c.prev.Data, canary)
	onBackend(b, func() {
		if relu {
			AffineRowsReLU(c.x, c.w, c.b, c.act)
		} else {
			AffineRows(c.x, c.w, c.b, c.act)
		}
		AccumGrads(c.delta, c.x, c.wg, c.bg)
		// x doubles as the forward activation whose sign gates prev.
		BackpropReLUDelta(c.delta, c.w, c.x, c.prev)
		Axpy(c.alpha, c.w, c.y)
	})
	c.a.fences(t, b.name)
	return CloneVec(c.act.Data), CloneVec(c.wg), CloneVec(c.bg), CloneVec(c.prev.Data), CloneVec(c.y)
}

func fillBits(v []float64, bits uint64) {
	for i := range v {
		v[i] = math.Float64frombits(bits)
	}
}

// compare runs the case on the Go kernels and on b and reports the first
// differing element of any output.
func (c *kernelCase) compare(t *testing.T, b backend, label string, relu bool, wg0, bg0 []float64) {
	t.Helper()
	wantAct, wantWg, wantBg, wantPrev, wantY := c.run(t, generic, relu, wg0, bg0)
	gotAct, gotWg, gotBg, gotPrev, gotY := c.run(t, b, relu, wg0, bg0)
	for _, o := range []struct {
		name      string
		got, want []float64
	}{
		{"AffineRows", gotAct, wantAct}, {"AccumGrads wg", gotWg, wantWg},
		{"AccumGrads bg", gotBg, wantBg}, {"BackpropReLUDelta", gotPrev, wantPrev},
		{"Axpy", gotY, wantY},
	} {
		for i := range o.want {
			if !sameBits(o.got[i], o.want[i]) {
				t.Fatalf("%s %s %dx%dx%d relu=%v: %s[%d] = %x (%v), Go kernel %x (%v)", b.name, label, c.rows, c.in, c.out, relu,
					o.name, i, math.Float64bits(o.got[i]), o.got[i], math.Float64bits(o.want[i]), o.want[i])
			}
		}
	}
}

func TestKernelsMatchGo(t *testing.T) {
	eachVector(t, func(t *testing.T, b backend) {
		g := lcg(22)
		for rows := 0; rows <= 20; rows++ {
			for _, in := range []int{0, 1, 3, 4, 5, 8, 16, 31, 32, 64, 65, 135} {
				for _, out := range []int{0, 1, 2, 3, 4, 5, 8, 10, 32, 100} {
					c := newKernelCase(rows, in, out)
					wg0, bg0 := make([]float64, in*out), make([]float64, out)
					// Five rounds: plain values, then specials everywhere, each
					// with the delta zeros planted a different way.
					for mode := 0; mode < 5; mode++ {
						special := mode > 0
						fill(&g, c.x.Data, special)
						fill(&g, c.w, special)
						fill(&g, c.b, special)
						fill(&g, c.delta.Data, special && mode%2 == 0)
						zeroDeltas(&g, c.delta, mode)
						fill(&g, wg0, special)
						fill(&g, bg0, special)
						c.alpha = axpyAlphas[mode]
						c.compare(t, b, fmt.Sprintf("mode %d", mode), mode%2 == 1, wg0, bg0)
					}
				}
			}
		}
	})
}

// axpyAlphas are the scalars Axpy is tried with: the special ones, and an
// ordinary step size.
var axpyAlphas = []float64{-0.0125, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300}

// TestAxpyMatchesGo holds Axpy's vector body to the Go loop at every length
// through a few passes of each width and their tails, and at the parameter
// counts the workloads update (the long haul's 230, FMNIST's 2 410,
// CIFAR-100's 5 380), on unaligned operands fenced by canaries.
func TestAxpyMatchesGo(t *testing.T) {
	eachVector(t, func(t *testing.T, b backend) {
		g := lcg(38)
		lengths := []int{230, 2410, 5380}
		for n := 0; n <= 67; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			a := newArena(2*n + 16)
			x, y := a.vec(n), a.vec(n)
			y0 := make([]float64, n)
			for _, special := range []bool{false, true} {
				fill(&g, x, special)
				fill(&g, y0, special)
				for _, alpha := range axpyAlphas {
					var want []float64
					for _, be := range []backend{generic, b} {
						copy(y, y0)
						onBackend(be, func() { Axpy(alpha, x, y) })
						a.fences(t, fmt.Sprintf("Axpy n=%d %s", n, be.name))
						if be == generic {
							want = CloneVec(y)
							continue
						}
						for i := range want {
							if !sameBits(y[i], want[i]) {
								t.Fatalf("Axpy n=%d alpha=%v special=%v: y[%d] = %x (%v), Go loop %x (%v)", n, alpha, special,
									i, math.Float64bits(y[i]), y[i], math.Float64bits(want[i]), want[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestKernelsReLUKeepsNaN pins the value a swapped VMAXPD would move: clamp0
// returns NaN as it is (v < 0 is false), where max(v, 0) the other way round
// answers 0. A sum that starts from +0 can never be -0, so NaN is the only
// such value a layer can produce.
func TestKernelsReLUKeepsNaN(t *testing.T) {
	needAVX2(t)
	x := Matrix{Data: []float64{1, 0}, Rows: 1, Cols: 2}
	w := []float64{math.NaN(), 0, -2, 0, 3, 0, math.Inf(-1), 0, math.NaN(), 0, -2, 0, 3, 0, math.Inf(-1), 0}
	want := []float64{math.NaN(), 0, 3, 0, math.NaN(), 0, 3, 0}
	for _, b := range append([]backend{generic}, availableVectors()...) {
		for _, width := range []int{4, 8} { // an output group of either width
			out := NewMatrix(1, width)
			onBackend(b, func() { AffineRowsReLU(x, w[:2*width], make([]float64, width), out) })
			for i := range out.Data {
				if !sameBits(out.Data[i], want[i]) {
					t.Errorf("%s, %d outputs: out[%d] = %v, want %v", b.name, width, i, out.Data[i], want[i])
				}
			}
		}
	}
}

// TestKernelsDoNotFuse pins the separate rounding of the multiply on the
// smallest case: with c = -(1 + 2⁻⁵¹) already in the accumulator and a = 1 +
// 2⁻⁵², a·a = 1 + 2⁻⁵¹ + 2⁻¹⁰⁴ rounds to 1 + 2⁻⁵¹ and the sum is 0; a fused
// multiply-add keeps the low bit and answers 2⁻¹⁰⁴.
func TestKernelsDoNotFuse(t *testing.T) {
	needAVX2(t)
	a := 1 + 0x1p-52
	c := -(1 + 0x1p-51)
	x := Matrix{Data: []float64{1, a}, Rows: 1, Cols: 2}
	for _, b := range append([]backend{generic}, availableVectors()...) {
		for _, width := range []int{1, 8} { // an output group of either width
			w := make([]float64, 0, 2*width)
			for range width {
				w = append(w, c, a)
			}
			out := NewMatrix(1, width)
			onBackend(b, func() { AffineRows(x, w, make([]float64, width), out) })
			for i, v := range out.Data {
				if v != 0 {
					t.Errorf("%s, %d outputs: out[%d] = %g, want 0 (the product must round before the add)", b.name, width, i, v)
				}
			}
		}
	}
}

func FuzzKernelsMatch(f *testing.F) {
	f.Add([]byte{}, uint8(10), uint8(16), uint8(8))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(5), uint8(7), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint8(9), uint8(33), uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, rows, in, out uint8) {
		needAVX2(t)
		c := newKernelCase(int(rows%24), int(in%70), int(out%40))
		// Operands are the fuzzer's raw bit patterns, read round and round
		// (a length that is not a multiple of eight shifts the phase, so
		// repeats differ); an empty input falls back to the generator.
		g := lcg(1)
		pos := 0
		draw := func(v []float64) {
			for i := range v {
				if len(raw) == 0 {
					v[i] = g.next()
					continue
				}
				var word [8]byte
				for j := range word {
					word[j] = raw[pos%len(raw)]
					pos++
				}
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
			}
		}
		wg0, bg0 := make([]float64, len(c.wg)), make([]float64, len(c.bg))
		alpha := []float64{0}
		for _, v := range [][]float64{c.x.Data, c.w, c.b, c.delta.Data, wg0, bg0, alpha} {
			draw(v)
		}
		c.alpha = alpha[0]
		for _, b := range availableVectors() {
			c.compare(t, b, "fuzz", len(raw)%2 == 0, wg0, bg0)
		}
		// The softmax's shift is held to MinMax's max, its words to the
		// scalar loop.
		checkSoftmaxShift(t, c.b)
	})
}

func init() {
	kernelBackends = []kernelBackend{{generic.name, true, func(f func()) { onBackend(generic, f) }}}
	for _, b := range vectorBackends {
		kernelBackends = append(kernelBackends, kernelBackend{b.name, b.available(), func(f func()) { onBackend(b, f) }})
	}
}
