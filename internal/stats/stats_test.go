package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !almost(s.Mean, 2.5, 1e-12) || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Median, 2.5, 1e-12) {
		t.Fatalf("median = %v", s.Median)
	}
	wantStd := math.Sqrt(1.25)
	if !almost(s.Std, wantStd, 1e-12) {
		t.Fatalf("std = %v want %v", s.Std, wantStd)
	}
	if !strings.Contains(s.String(), "n=4") {
		t.Fatalf("string = %q", s.String())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) != nil")
	}
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {150, 50},
		{10, 14}, // interpolated: rank 0.4 -> 10 + 0.4*10
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("p%.0f = %v want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestCDFMonotone(t *testing.T) {
	pts := CDF([]float64{5, 1, 3})
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].X != 1 || pts[2].X != 5 {
		t.Fatalf("pts = %v", pts)
	}
	if !almost(pts[2].P, 1, 1e-12) {
		t.Fatalf("final P = %v", pts[2].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P <= pts[i-1].P || pts[i].X < pts[i-1].X {
			t.Fatalf("not monotone at %d: %v", i, pts)
		}
	}
}

func TestLinearRegressionExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	r := LinearRegression(x, y)
	if !almost(r.Slope, 2, 1e-12) || !almost(r.Intercept, 1, 1e-12) || !almost(r.R2, 1, 1e-12) {
		t.Fatalf("regression = %+v", r)
	}
	if !strings.Contains(r.String(), "R²") {
		t.Fatalf("string = %q", r.String())
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	if r := LinearRegression([]float64{1}, []float64{2}); r.N != 1 || r.Slope != 0 {
		t.Fatalf("single point: %+v", r)
	}
	// Constant x: no variance.
	if r := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); r.Slope != 0 || r.R2 != 0 {
		t.Fatalf("constant x: %+v", r)
	}
	// Constant y: perfect horizontal fit, R² defined as 0 here.
	r := LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5})
	if !almost(r.Slope, 0, 1e-12) || !almost(r.Intercept, 5, 1e-12) {
		t.Fatalf("constant y: %+v", r)
	}
}

func TestLinearRegressionMismatchedLengths(t *testing.T) {
	r := LinearRegression([]float64{1, 2, 3, 4, 5}, []float64{3, 5, 7})
	if r.N != 3 || !almost(r.Slope, 2, 1e-12) {
		t.Fatalf("truncated fit = %+v", r)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 || v < s.Min-1e-9 || v > s.Max+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: R² is within [0,1] and regression line passes through the means.
func TestQuickRegressionInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%60)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 10
			y[i] = 3*x[i] + rng.NormFloat64()
		}
		r := LinearRegression(x, y)
		if r.R2 < -1e-9 || r.R2 > 1+1e-9 {
			return false
		}
		// Line passes through (mean x, mean y).
		return almost(r.Slope*Mean(x)+r.Intercept, Mean(y), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is a proper step function over the sorted sample.
func TestQuickCDF(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%64)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		pts := CDF(xs)
		if len(pts) != n || !almost(pts[n-1].P, 1, 1e-12) {
			return false
		}
		xsSorted := append([]float64(nil), xs...)
		sort.Float64s(xsSorted)
		for i, pt := range pts {
			if pt.X != xsSorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
