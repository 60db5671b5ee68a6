// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, percentiles, empirical CDFs,
// histograms and simple linear regression with R² (for Figure 12a).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual scalar summary of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an empty
// sample. It sorts one copy of the sample and derives min, median and max
// from it, rather than scanning for the extremes and re-sorting inside
// Percentile.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: sortedPercentile(sorted, 50),
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(len(xs)))
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty sample and
// clamps p into [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

// sortedPercentile is Percentile over an already-sorted non-empty sample.
func sortedPercentile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	P float64 // cumulative probability in (0, 1]
}

// CDF returns the empirical CDF of xs as sorted (value, probability) steps.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pts := make([]CDFPoint, len(sorted))
	for i, x := range sorted {
		pts[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(sorted))}
	}
	return pts
}

// Regression is the result of a simple ordinary-least-squares fit
// y = Slope*x + Intercept.
type Regression struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// LinearRegression fits y = a*x + b by least squares and reports R².
// It returns a zero Regression when fewer than two points are supplied or
// when x has no variance.
func LinearRegression(x, y []float64) Regression {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return Regression{N: n}
	}
	x, y = x[:n], y[:n]
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{N: n}
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Regression{Slope: slope, Intercept: intercept, R2: r2, N: n}
}

// String renders the regression on one line.
func (r Regression) String() string {
	return fmt.Sprintf("y = %.4g*x + %.4g (R²=%.4f, n=%d)", r.Slope, r.Intercept, r.R2, r.N)
}
