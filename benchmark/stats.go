package main

import (
	"math"
	"sort"
)

// ladderQuantiles are the percentiles the diagnostic latency ladder walks,
// lowest first.
var ladderQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice, or NaN for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile returns the highest ladder percentile with at least ten of
// n samples beyond it, or 0 when not even the median has ten beyond it.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range ladderQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 { // the tolerance absorbs 1-q rounding
			best = q
		}
	}
	return best
}

// median returns the median of xs without reordering it (the mean of the
// two middle values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
