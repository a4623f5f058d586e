package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensated summation so that long
// time-series accumulations (multi-week traces) do not drift.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// It returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance of xs (dividing by
// n-1). It returns 0 for fewer than two samples.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Variance(xs) * float64(len(xs)) / float64(len(xs)-1)
}

// SampleStdDev returns the sample standard deviation of xs.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// Plateau returns the first of xs whose curve value reaches 99% of the
// curve's maximum — the point past which more history "does not help (but
// does not hurt either)": Fig 6's NMI age and Fig 11's history length. It
// returns xs's last element when none does (a NaN maximum) and 0 for no xs.
func Plateau(xs []int, curve []float64) int {
	if len(xs) == 0 {
		return 0
	}
	max := curve[0]
	for _, v := range curve {
		if v > max {
			max = v
		}
	}
	for i, v := range curve {
		if v >= 0.99*max {
			return xs[i]
		}
	}
	return xs[len(xs)-1]
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := float64(q * float64(n-1))
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// MeanCI returns the mean of xs together with the half-width of its
// confidence interval at the given confidence level (e.g. 0.95), using the
// normal approximation. For fewer than two samples the half-width is 0.
func MeanCI(xs []float64, level float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	z := NormalQuantile(0.5 + float64(level/2))
	halfWidth = z * SampleStdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, halfWidth
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// using the Acklam rational approximation (relative error < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation, highest power first.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [6]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01, 1,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [5]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00, 1,
	}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return horner(q, c[:]) / horner(q, d[:])
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -horner(q, c[:]) / horner(q, d[:])
	default:
		q := p - 0.5
		r := q * q
		return horner(r, a[:]) * q / horner(r, b[:])
	}
}

// horner evaluates the polynomial with coefficients c, highest power
// first, at x. Each product is rounded before its add, so no architecture
// fuses the two into one multiply-add.
func horner(x float64, c []float64) float64 {
	v := c[0]
	for _, ci := range c[1:] {
		v = float64(v*x) + ci
	}
	return v
}

// PearsonCorrelation returns the Pearson correlation coefficient between xs
// and ys. It returns an error if the lengths differ or fewer than two
// samples are supplied; it returns 0 if either series is constant.
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
