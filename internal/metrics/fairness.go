package metrics

import (
	"math"
	"sort"
)

// The paper bases its balancing index on Chiu–Jain fairness and notes that
// "other fairness metrics, such as max-min and proportional fairness, may
// also be used". This file provides those alternatives plus the Gini
// coefficient, so experiments can cross-check that S³'s advantage is not
// an artifact of one metric.

// MaxMinRatio returns min(load)/max(load) ∈ [0, 1]; 1 is perfectly even.
// An all-idle vector is perfectly balanced (1). Errors match BalanceIndex.
func MaxMinRatio(loads []float64) (float64, error) {
	if _, err := BalanceIndex(loads); err != nil {
		return 0, err // reuse validation (empty / negative / NaN)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range loads {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == 0 {
		return 1, nil
	}
	return lo / hi, nil
}

// ProportionalFairness returns the normalized proportional-fairness score:
// the geometric mean of the loads divided by their arithmetic mean,
// ∈ [0, 1] with 1 perfectly even. Zero loads give 0 (log-utility is
// −∞ there); an all-idle vector is defined as 1.
func ProportionalFairness(loads []float64) (float64, error) {
	if _, err := BalanceIndex(loads); err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range loads {
		sum += v
	}
	if sum == 0 {
		return 1, nil
	}
	mean := sum / float64(len(loads))
	logSum := 0.0
	for _, v := range loads {
		if v == 0 {
			return 0, nil
		}
		logSum += math.Log(v)
	}
	geoMean := math.Exp(logSum / float64(len(loads)))
	return geoMean / mean, nil
}

// Gini returns the Gini coefficient of the loads ∈ [0, 1); 0 is perfectly
// even. An all-idle vector is 0.
func Gini(loads []float64) (float64, error) {
	if _, err := BalanceIndex(loads); err != nil {
		return 0, err
	}
	n := len(loads)
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, v := range sorted {
		cum += float64(float64(i+1) * v)
		total += v
	}
	if total == 0 {
		return 0, nil
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n), nil
}
