package stats

import (
	"math"
	"sort"
)

// Two-sample Kolmogorov–Smirnov test, used to quantify distributional
// differences between balance-index samples (e.g. Fig. 2's peak vs
// average hours, or S³'s vs LLF's bin distributions in Fig. 12).

// KSResult holds the test outcome.
type KSResult struct {
	// Statistic is D, the maximum CDF distance.
	Statistic float64
	// PValue is the asymptotic two-sided p-value (Kolmogorov
	// distribution approximation; accurate for n ≳ 25 per sample).
	PValue float64
}

// KolmogorovSmirnov runs the two-sample KS test on xs and ys.
func KolmogorovSmirnov(xs, ys []float64) (KSResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return KSResult{}, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		// Advance both sides through every sample equal to the current
		// minimum before measuring, so ties across samples do not
		// inflate D.
		v := a[i]
		if b[j] < v {
			v = b[j]
		}
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}

	ne := na * nb / (na + nb)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{Statistic: d, PValue: kolmogorovQ(lambda)}, nil
}

// kolmogorovQ evaluates the Kolmogorov distribution's survival function
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² λ²).
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := float64(sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda))
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	switch {
	case q < 0:
		return 0
	case q > 1:
		return 1
	default:
		return q
	}
}
