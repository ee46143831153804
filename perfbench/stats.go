package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q in n
// sorted samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond samples
// strictly beyond the nearest-rank q-quantile.
func supported(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether the sample supports it under the minBeyond rule.
func percentile(sorted []float64, q float64) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	return sorted[rank(q, len(sorted))-1], supported(q, len(sorted))
}

// tail returns the highest of the candidate quantiles that the sample
// supports, with its value; ok is false when not even the median is
// supported.
func tail(sorted []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if v, ok := percentile(sorted, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of an unsorted sample (0 when
// empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}

// mean is the arithmetic mean (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
