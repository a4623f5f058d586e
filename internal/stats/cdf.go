package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function built from samples.
// The zero value is an empty CDF to which samples can be added.
type CDF struct {
	sorted  []float64
	dirty   []float64
	isDirty bool
}

// Add inserts one sample.
func (c *CDF) Add(x float64) {
	c.dirty = append(c.dirty, x)
	c.isDirty = true
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) + len(c.dirty) }

func (c *CDF) settle() {
	if !c.isDirty {
		return
	}
	c.sorted = append(c.sorted, c.dirty...)
	c.dirty = c.dirty[:0]
	sort.Float64s(c.sorted)
	c.isDirty = false
}

// At returns the empirical CDF evaluated at x: the fraction of samples <= x.
// An empty CDF evaluates to 0 everywhere.
func (c *CDF) At(x float64) float64 {
	c.settle()
	if len(c.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(n) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the samples by linear interpolation
// between order statistics (type 7, the R/NumPy default). It returns an
// error for no samples or q outside [0, 1].
func (c *CDF) Quantile(q float64) (float64, error) {
	c.settle()
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	if !(q >= 0 && q <= 1) { // NaN too
		return 0, fmt.Errorf("stats: quantile %v out of range", q)
	}
	return quantileSorted(c.sorted, q), nil
}

// Points returns up to n evenly spaced (x, F(x)) points suitable for
// plotting the CDF curve. Fewer points are returned when there are fewer
// samples. Points are returned in ascending x order.
func (c *CDF) Points(n int) []Point {
	c.settle()
	m := len(c.sorted)
	if m == 0 || n <= 0 {
		return nil
	}
	n = min(n, m)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// Sample indices spread across the sorted data, always
		// including the last sample so the curve reaches 1.0.
		idx := min((i+1)*m/n, m)
		x := c.sorted[idx-1]
		pts = append(pts, Point{X: x, Y: float64(idx) / float64(m)})
	}
	return pts
}

// Point is a single (x, y) pair on a curve.
type Point struct {
	X, Y float64
}

// String renders a compact textual table of the CDF, for harness output.
func (c *CDF) String() string {
	var sb strings.Builder
	for _, p := range c.Points(10) {
		fmt.Fprintf(&sb, "%8.4f -> %5.3f\n", p.X, p.Y)
	}
	return sb.String()
}

// Welford is an online mean accumulator (Welford's update). The zero value
// is ready to use.
type Welford struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }
