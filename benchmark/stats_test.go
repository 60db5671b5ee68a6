package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0},       // not even the median has ten beyond it
		{20, 0.5},    // 10 beyond p50, 2 beyond p90
		{99, 0.5},    // 9.9 beyond p90
		{100, 0.9},   // exactly 10 beyond p90
		{999, 0.9},   // 9.99 beyond p99
		{1000, 0.99}, // exactly 10 beyond p99
		{10000, 0.999},
		{200000, 0.9999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median(xs[:3]); got != 2 {
		t.Errorf("median of odd count = %g, want 2", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("median reordered its input: %v", xs)
	}
}
