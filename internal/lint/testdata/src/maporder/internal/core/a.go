// Package core is a fixture standing in for a deterministic package: map
// iteration order must not be observable in results.
package core

import "sort"

// encodeOrderSensitive writes map entries in iteration order — the latent
// checkpoint-nondeterminism bug the analyzer exists for.
func encodeOrderSensitive(m map[int]float64) []float64 {
	var out []float64
	for _, v := range m { // want `range over map has nondeterministic order`
		out = append(out, v)
	}
	return out
}

// floatAccumulation is order-sensitive: float addition rounds per step.
func floatAccumulation(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // want `range over map has nondeterministic order`
		total += v
	}
	return total
}

// earlyExit makes the visited-key set order-dependent.
func earlyExit(m map[int]bool) int {
	n := 0
	for range m { // want `range over map has nondeterministic order`
		n++
		if n > 3 {
			break
		}
	}
	return n
}

// collectThenSort is the sanctioned idiom: the sort erases insertion order.
func collectThenSort(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// guardedCollectThenSort filters while collecting (a depth band out of a depth
// map): a pure guard around the append keeps the loop order-insensitive.
func guardedCollectThenSort(m map[int]int, lo, hi int) []int {
	var out []int
	for id, depth := range m {
		if depth >= lo && depth <= hi {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// intCounter accumulates over the integers, which commute exactly.
func intCounter(m map[int]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n += v
		}
	}
	return n
}

// maxUpdate converges to the extremum in any visit order.
func maxUpdate(m map[int]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// keyedWrites land on per-key-distinct slots; idempotentWrites overwrite
// collisions with the same constant.
func keyedWrites(src map[int]int) (map[int]int, map[int]bool) {
	dst := make(map[int]int, len(src))
	set := make(map[int]bool, len(src))
	for k, v := range src {
		dst[k] = v
		set[v] = true
	}
	return dst, set
}

// pruning deletes as it goes: delete is order-insensitive.
func pruning(m map[int]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

// sliceIteration is ordered by construction; the analyzer must stay quiet.
func sliceIteration(xs []float64) float64 {
	total := 0.0
	for _, v := range xs {
		total += v
	}
	return total
}

// audited keeps an order-sensitive loop behind an audited suppression.
func audited(m map[int]float64) float64 {
	total := 0.0
	//speclint:allow maporder fixture demonstrating an audited suppression
	for _, v := range m {
		total += v
	}
	return total
}
