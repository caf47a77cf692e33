package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the first quartile, the median and the third quartile of
// xs by the exclusive method — the same cut points Python's
// statistics.quantiles(xs, n=4) gives, which is what the benchmark driver
// computes spreads from. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// tailPercentile picks the percentile a tail latency is reported at for n
// samples: the highest whole percentile that still has at least ten samples
// beyond it, capped at p99. Below twenty samples no percentile above the
// median qualifies and the median is reported.
func tailPercentile(n int) int {
	if n < 20 {
		return 50
	}
	p := 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	if p < 50 {
		p = 50
	}
	return p
}

// percentile returns the p-th percentile (nearest rank) of the samples.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
