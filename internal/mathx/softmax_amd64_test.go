//go:build !purego

package mathx

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"
)

// The softmax's vector exponential is held to expBranch, a Go port of the
// reference it copies — math.Exp's amd64 body, exp_amd64.s — with math.FMA
// wherever its FMA branch fuses. math.FMA is exact on every CPU, so the port
// is an oracle that does not depend on which branch math.Exp takes in this
// process; math.Exp itself is the second oracle wherever it takes the FMA one.

const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor is exp_amd64.s's exprodata table in the order Horner's rule
// consumes it.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// expNormal reports whether exp_amd64.s takes x straight to its last step:
// its exponent k, LOG2E·x rounded to nearest even, biases into [1, 0x7FE].
// NaN and ±Inf fail, as does anything above Overflow.
func expNormal(x float64) bool {
	k := math.RoundToEven(float64(expLog2e * x))
	return k >= -1022 && k <= 1023
}

// expBranch is exp_amd64.s on an argument for which expNormal holds: its FMA
// branch when fused is set, its other branch when not.
func expBranch(x float64, fused bool) float64 {
	k := math.RoundToEven(float64(expLog2e * x))
	var r float64
	if fused {
		r = math.FMA(-k, expLn2U, x)
		r = math.FMA(-k, expLn2L, r)
	} else {
		r = x - float64(expLn2U*k)
		r -= float64(expLn2L * k)
	}
	r = float64(r * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		if fused {
			p = math.FMA(p, r, c)
		} else {
			p = float64(p*r) + c
		}
	}
	y := float64(r * p)
	for i := 0; i < 3; i++ {
		y = float64(y * (y + 2))
	}
	if fused {
		y = math.FMA(y+2, y, 1)
	} else {
		y = float64(y*(y+2)) + 1
	}
	return float64(y * math.Float64frombits(uint64(int64(k)+0x3FF)<<52))
}

// mathExpFuses reports whether math.Exp takes its FMA branch in this process,
// read off the words it gives on expCheckInputs.
func mathExpFuses() bool {
	for _, x := range expCheckInputs {
		if math.Float64bits(math.Exp(x)) != math.Float64bits(expBranch(x, true)) {
			return false
		}
	}
	return true
}

// needFMA skips a test of the vector body itself on a CPU that cannot run it.
func needFMA(t testing.TB) {
	t.Helper()
	if !HasAVX2() || !hasFMA() {
		t.Skip("CPU lacks AVX2 or FMA: the vector exponential cannot run here")
	}
}

// TestExpSelfCheck pins the start-up decision: the pinned inputs split
// math.Exp's two branches, and the vector exponential is on exactly when
// math.Exp takes the branch it copies.
func TestExpSelfCheck(t *testing.T) {
	for _, x := range expCheckInputs {
		fused, separate := expBranch(x, true), expBranch(x, false)
		if !expNormal(x) || fused == separate {
			t.Errorf("expCheckInputs holds %v, on which the two branches agree (%x)", x, math.Float64bits(fused))
		}
		if e := math.Exp(x); e != fused && e != separate {
			t.Errorf("math.Exp(%v) = %x, neither branch's %x or %x", x, math.Float64bits(e), math.Float64bits(fused), math.Float64bits(separate))
		}
	}
	needFMA(t)
	if fuses := mathExpFuses(); useFMAExp != fuses {
		t.Fatalf("vector exponential on = %v, but math.Exp takes the FMA branch = %v", useFMAExp, fuses)
	}
}

// expSpecials are arguments at and around every edge of the reference's
// normal range: the zeros, the infinities and NaN, the overflow threshold and
// the exponent's top, the exponent's bottom, subnormal results and underflow.
var expSpecials = func() []float64 {
	v := []float64{
		0, math.Copysign(0, -1), math.Inf(-1), math.Inf(1), math.NaN(),
		709.79, 7.09782712893384e+02, 709.78, 709.5, 709.43, 709.44, 1e300, math.MaxFloat64,
		-708.39, -708.40, -709.09, -709.1, -744.44, -745.13, -745.14, -746, -1e300, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, -1e-300,
		// Arguments on which rounding one Taylor step twice instead of once
		// moves the result's last bit: the 1/6, 1/2 and 1 steps. The higher
		// steps and the LN2 reduction never did in 4·10⁸ draws: their
		// rounding sits far below the result's last bit.
		-21.21129705006437, -563.9880650580002, -7.18040755265005, -619.2751647680918,
		-39.2840664344431, -12.135442149033908, -362.9426420645625, -1.8587174421630914,
		-13.514127235195822, -2.3577963438508664,
	}
	for x := -708.0; x >= -746; x -= 0.25 {
		v = append(v, x)
	}
	// Both sides of every rounding edge of k at the two ends of the range.
	for _, k := range []float64{-1023.5, -1022.5, -1021.5, 1022.5, 1023.5} {
		x := k / expLog2e
		v = append(v, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	return v
}()

// checkVectorExp runs softmaxExp on x (shifted by shift, starting from sum)
// and checks every word it promises: it stops at the first group of four
// with an abnormal lane, or at the tail; each word it wrote is expBranch's,
// and math.Exp's too where math.Exp fuses; it leaves the rest alone; its sum
// is the serial sum. x must come from an arena, which is checked for writes
// outside it.
func checkVectorExp(t *testing.T, a *arena, x []float64, shift, sum float64, fuses bool) {
	t.Helper()
	in := CloneVec(x)
	wantDone := len(x) &^ 3
	for i, v := range in {
		if !expNormal(v - shift) {
			wantDone = min(wantDone, i&^3)
		}
	}
	done, total := 0, sum
	if len(x) > 0 {
		done, total = softmaxExp(&x[0], len(x), shift, sum)
	}
	a.fences(t, "softmaxExp")
	if done != wantDone {
		t.Fatalf("softmaxExp(%v, shift %v) did %d elements, want %d", in, shift, done, wantDone)
	}
	wantSum := sum
	for i, v := range in {
		if i >= done {
			if math.Float64bits(x[i]) != math.Float64bits(v) {
				t.Fatalf("softmaxExp(shift %v) wrote x[%d] = %v past the %d elements it did", shift, i, x[i], done)
			}
			continue
		}
		want := expBranch(v-shift, true)
		if math.Float64bits(x[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v - %v) = %x (%v), FMA branch %x (%v)", v, shift, math.Float64bits(x[i]), x[i], math.Float64bits(want), want)
		}
		if e := math.Exp(v - shift); fuses && math.Float64bits(x[i]) != math.Float64bits(e) {
			t.Fatalf("exp(%v - %v) = %x, math.Exp %x", v, shift, math.Float64bits(x[i]), math.Float64bits(e))
		}
		wantSum += want
	}
	if math.Float64bits(total) != math.Float64bits(wantSum) {
		t.Fatalf("softmaxExp(%v, shift %v) sum %x (%v), serial sum %x (%v)", in, shift, math.Float64bits(total), total, math.Float64bits(wantSum), wantSum)
	}
}

// TestVectorExpMatchesReference holds the vector exponential to the FMA
// branch word for word: every special argument in every lane of a group of
// otherwise ordinary ones, groups of specials side by side, and random
// arguments across the whole normal range and past both of its ends.
func TestVectorExpMatchesReference(t *testing.T) {
	needFMA(t)
	fuses := mathExpFuses()
	g := lcg(41)
	a := newArena(1 << 12)
	group := a.vec(4)
	for _, s := range expSpecials {
		for lane := range group {
			for i := range group {
				group[i] = -20 * (g.next() + 1)
			}
			group[lane] = s
			checkVectorExp(t, a, group, 0, 0, fuses)
		}
	}
	for n := 0; n <= 13; n++ {
		x := a.vec(n)
		for round := 0; round < 200; round++ {
			for i := range x {
				x[i] = expSpecials[int(uint64(g)>>33)%len(expSpecials)]
				g.next()
			}
			checkVectorExp(t, a, x, 0, float64(round), fuses)
		}
	}
	x := a.vec(256)
	for round := 0; round < 4000; round++ {
		// Logits around a shift, as the softmax hands them over: mostly
		// inside [-745, 709.4], sometimes past either end.
		shift := 40 * g.next()
		for i := range x {
			x[i] = shift + 1500*(g.next()+1)/2 - 770*(1+g.next()/50)
			if round%8 != 0 {
				x[i] = math.Max(math.Min(x[i], shift+709.4), shift-745)
			}
		}
		checkVectorExp(t, a, x, shift, 0, fuses)
	}
}

// TestExpShiftedSumMatchesScalar holds the whole exponential loop — vector
// groups, the groups handed back, the tail — to SoftmaxInPlace's Go loop,
// whose math.Exp it must then equal.
func TestExpShiftedSumMatchesScalar(t *testing.T) {
	needFMA(t)
	if !mathExpFuses() {
		t.Skip("math.Exp does not take its FMA branch in this process")
	}
	g := lcg(43)
	for n := 0; n <= 40; n++ {
		x := make([]float64, n)
		for round := 0; round < 100; round++ {
			fill(&g, x, round%2 == 1)
			for i := range x {
				if round%3 == 0 {
					x[i] = expSpecials[int(uint64(g)>>33)%len(expSpecials)]
					g.next()
				}
			}
			got := CloneVec(x)
			shift := g.next()
			s := expShiftedSum(got, shift)
			want := 0.0
			for i, v := range x {
				e := math.Exp(v - shift)
				want += e
				if !sameBits(got[i], e) {
					t.Fatalf("expShiftedSum(%v, %v)[%d] = %x, math.Exp %x", x, shift, i, math.Float64bits(got[i]), math.Float64bits(e))
				}
			}
			if !sameBits(s, want) {
				t.Fatalf("expShiftedSum(%v, %v) = %x, serial sum %x", x, shift, math.Float64bits(s), math.Float64bits(want))
			}
		}
	}
}

// TestDivRowMatchesGo holds divRow to x[i] /= s at every length through a few
// groups of four and their tails, on unaligned operands fenced by canaries.
func TestDivRowMatchesGo(t *testing.T) {
	needAVX2(t)
	g := lcg(47)
	for n := 1; n <= 19; n++ {
		a := newArena(n + 8)
		x := a.vec(n)
		for _, s := range append([]float64{3, 0.1, -7, 1e-310}, specials...) {
			fill(&g, x, true)
			want := CloneVec(x)
			for i := range want {
				want[i] /= s
			}
			divRow(&x[0], n, s)
			a.fences(t, fmt.Sprintf("divRow n=%d", n))
			for i := range want {
				if !sameBits(x[i], want[i]) {
					t.Fatalf("divRow n=%d s=%v: x[%d] = %x, Go %x", n, s, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// fmaOffChild is set in the environment of TestSoftmaxWithoutFMA's child.
const fmaOffChild = "MATHX_TEST_FMA_OFF_CHILD"

// TestSoftmaxWithoutFMA re-executes this test binary with GODEBUG=cpu.fma=off,
// which sends math.Exp down its other branch: there the start-up check must
// leave the vector exponential off, and SoftmaxInPlace must equal the scalar
// loop word for word — on rows that hold the inputs where the branches split.
func TestSoftmaxWithoutFMA(t *testing.T) {
	if os.Getenv(fmaOffChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSoftmaxWithoutFMA$", "-test.v")
		cmd.Env = append(os.Environ(), fmaOffChild+"=1", "GODEBUG=cpu.fma=off")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child with GODEBUG=cpu.fma=off: %v\n%s", err, out)
		}
		t.Logf("child with GODEBUG=cpu.fma=off:\n%s", out)
		return
	}
	if mathExpFuses() {
		t.Fatal("GODEBUG=cpu.fma=off left math.Exp on its FMA branch")
	}
	if useFMAExp || Backend() == "avx2+fma" {
		t.Fatalf("math.Exp does not fuse, but the vector exponential is on (backend %s)", Backend())
	}
	t.Logf("backend %s", Backend())
	for n := 1; n <= 12; n++ {
		for off := 0; off+n <= len(expCheckInputs); off += n {
			row := CloneVec(expCheckInputs[off : off+n])
			row[0] = 0 // the shift: every other logit stays the pinned argument
			checkSoftmaxShift(t, row)
		}
	}
	checkSoftmaxShift(t, expCheckInputs[:])
}
