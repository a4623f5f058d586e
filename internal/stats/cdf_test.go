package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := newCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if got := c.At(3); got != 0 {
		t.Errorf("empty At = %v, want 0", got)
	}
	if _, err := c.Quantile(0.5); err == nil {
		t.Error("empty Quantile should error")
	}
	if pts := c.Points(5); pts != nil {
		t.Errorf("empty Points = %v, want nil", pts)
	}
}

func TestCDFIncrementalAdd(t *testing.T) {
	var c CDF
	c.Add(3)
	c.Add(1)
	if got := c.At(2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	c.Add(2) // interleave adds after a query
	if got := c.At(2); !almostEqual(got, 2.0/3.0, 1e-12) {
		t.Errorf("At(2) after add = %v, want 2/3", got)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestCDFPointsReachOne(t *testing.T) {
	c := newCDF([]float64{5, 3, 8, 1, 9, 2})
	pts := c.Points(4)
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	last := pts[len(pts)-1]
	if !almostEqual(last.Y, 1, 1e-12) {
		t.Errorf("last point Y = %v, want 1", last.Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Errorf("points not monotonic: %v", pts)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		c := newCDF(xs)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		fa, fb := c.At(lo), c.At(hi)
		return fa <= fb && fa >= 0 && fb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{4, 7, 13, 16, 2, 9.5, -3}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Errorf("Welford mean = %v, batch = %v", w.Mean(), Mean(xs))
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d, want %d", w.N(), len(xs))
	}
}

func TestCDFString(t *testing.T) {
	c := newCDF([]float64{1, 2, 3})
	if s := c.String(); s == "" {
		t.Error("String should be non-empty")
	}
}

// newCDF is a CDF of the samples, built the way callers build one: the
// zero CDF plus Add (there is no constructor).
func newCDF(samples []float64) *CDF {
	c := &CDF{}
	for _, x := range samples {
		c.Add(x)
	}
	return c
}
