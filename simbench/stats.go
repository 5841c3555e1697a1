package main

import (
	"sort"
	"time"
)

// tailQuantiles are the percentiles the benchmark may report as a timing's
// tail, highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest of tailQuantiles that leaves at least
// ten of n samples beyond it. It reports false when even the median has
// fewer than ten samples beyond it.
func tailQuantile(n uint64) (float64, bool) {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering xs. It returns 0 for an empty slice.
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

// maxOf returns the largest of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// busyFrac is the pool's utilisation over one matrix: the summed job time
// divided by the time the pool's width workers had available.
func busyFrac(jobs []time.Duration, width int, wall time.Duration) float64 {
	if width <= 0 || wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range jobs {
		sum += d
	}
	return sum.Seconds() / (float64(width) * wall.Seconds())
}
