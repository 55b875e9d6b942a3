package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the average of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minOf and maxOf return the extremes of xs, or 0 for no samples.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentiles are the percentiles a timing may be reported at, in
// increasing order.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the value is set by a handful of outliers.
const minBeyond = 10

// highestSupported returns the highest of tailPercentiles with at least
// minBeyond of n samples beyond it, and false when even the median is not
// supported.
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		beyond := float64(n) * (1 - p/100)
		if beyond+1e-9 < minBeyond {
			break
		}
		best, ok = p, true
	}
	return best, ok
}

// bucketQuantile estimates the q-quantile (0..1) of a histogram given as
// upper bounds and per-bucket counts. It interpolates linearly inside the
// bucket holding the quantile; the overflow bucket reports the last finite
// bound.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(bounds) || math.IsInf(bounds[i], 1) {
				return lastFinite(bounds)
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return lastFinite(bounds)
}

func lastFinite(bounds []float64) float64 {
	for i := len(bounds) - 1; i >= 0; i-- {
		if !math.IsInf(bounds[i], 1) {
			return bounds[i]
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
