package main

import (
	"math"
	"sort"
)

// quantile returns the exact p-quantile (0 <= p <= 1) of the samples by the
// nearest-rank rule: the smallest sample with at least a share p of the
// samples at or below it. It sorts a copy; 0 for no samples. No buckets,
// no interpolation — the report states n so a reader can judge how many
// samples lie beyond a percentile.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the two middle samples for an even count, so the
// median of window rates does not depend on which of two windows ran first.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minMax returns the smallest and the largest of the values.
func minMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}
