package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// GapPoint is the gap statistic evaluated at one k.
type GapPoint struct {
	K int
	// Gap is Gap(k) = (1/B) Σ_b log(W_kb) − log(W_k).
	Gap float64
	// SK is the reference-set standard deviation s_k (already scaled by
	// sqrt(1 + 1/B) per Tibshirani et al.).
	SK float64
	// LogW is log(W_k) on the observed data.
	LogW float64
}

// GapResult holds the gap-statistic curve and the selected k.
type GapResult struct {
	Points []GapPoint
	// OptimalK is the smallest k with Gap(k) >= Gap(k+1) − s_{k+1}; if no
	// k satisfies the rule, the last evaluated k is returned.
	OptimalK int
}

// GapConfig controls the gap-statistic computation.
type GapConfig struct {
	// MaxK is the largest k to evaluate (default 10).
	MaxK int
	// ReferenceSets is B, the number of uniform reference datasets
	// (default 10).
	ReferenceSets int
	// KMeans configures the underlying clustering runs.
	KMeans Config
}

func (c GapConfig) withDefaults() GapConfig {
	if c.MaxK <= 0 {
		c.MaxK = 10
	}
	if c.ReferenceSets <= 0 {
		c.ReferenceSets = 10
	}
	return c
}

// GapStatistic evaluates Gap(k) for k = 1..MaxK following Tibshirani,
// Walther & Hastie (2001): reference sets are drawn uniformly over the
// bounding box of the observed data, and the optimal k is the smallest k
// with Gap(k) ≥ Gap(k+1) − s_{k+1}.
func GapStatistic(points [][]float64, rng *rand.Rand, cfg GapConfig) (*GapResult, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	cfg = cfg.withDefaults()
	if cfg.MaxK >= len(points) {
		cfg.MaxK = len(points) - 1
	}
	if cfg.MaxK < 1 {
		return nil, fmt.Errorf("cluster: too few points (%d) for gap statistic", len(points))
	}
	dim := len(points[0])
	lo, hi, err := boundingBox(points)
	if err != nil {
		return nil, err
	}

	res := &GapResult{Points: make([]GapPoint, 0, cfg.MaxK)}
	for k := 1; k <= cfg.MaxK; k++ {
		obs, err := KMeans(points, k, rng, cfg.KMeans)
		if err != nil {
			return nil, err
		}
		logW := safeLog(Dispersion(points, obs.Labels, k))

		refLogs := make([]float64, cfg.ReferenceSets)
		for b := 0; b < cfg.ReferenceSets; b++ {
			ref := uniformReference(len(points), dim, lo, hi, rng)
			rres, err := KMeans(ref, k, rng, cfg.KMeans)
			if err != nil {
				return nil, err
			}
			refLogs[b] = safeLog(Dispersion(ref, rres.Labels, k))
		}
		meanRef := mean(refLogs)
		sd := stddev(refLogs, meanRef)
		sk := sd * math.Sqrt(1+1/float64(cfg.ReferenceSets))
		res.Points = append(res.Points, GapPoint{
			K:    k,
			Gap:  meanRef - logW,
			SK:   sk,
			LogW: logW,
		})
	}

	res.OptimalK, err = SelectK(res.Points)
	return res, err
}

func boundingBox(points [][]float64) (lo, hi []float64, err error) {
	dim := len(points[0])
	lo = append([]float64(nil), points[0]...)
	hi = append([]float64(nil), points[0]...)
	for _, p := range points {
		if len(p) != dim {
			return nil, nil, ErrRaggedData
		}
		for d, x := range p {
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	return lo, hi, nil
}

func uniformReference(n, dim int, lo, hi []float64, rng *rand.Rand) [][]float64 {
	ref := make([][]float64, n)
	for i := range ref {
		p := make([]float64, dim)
		for d := 0; d < dim; d++ {
			p[d] = lo[d] + float64(rng.Float64()*(hi[d]-lo[d]))
		}
		ref[i] = p
	}
	return ref
}

// safeLog guards against log(0) when a clustering collapses to zero
// dispersion (e.g. duplicate points); it substitutes a tiny floor.
func safeLog(w float64) float64 {
	const floor = 1e-12
	if w < floor {
		w = floor
	}
	return math.Log(w)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64, m float64) float64 {
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// ErrNoGapCurve is returned by SelectK when the curve is empty.
var ErrNoGapCurve = errors.New("cluster: empty gap curve")

// SelectK applies the Tibshirani rule to a gap curve: the smallest k with
// Gap(k) ≥ Gap(k+1) − s_{k+1}, else the last k. GapStatistic decides with
// it; exposed so analysis code can render the curve and the decision
// separately.
func SelectK(points []GapPoint) (int, error) {
	if len(points) == 0 {
		return 0, ErrNoGapCurve
	}
	for i := 0; i+1 < len(points); i++ {
		if points[i].Gap >= points[i+1].Gap-points[i+1].SK {
			return points[i].K, nil
		}
	}
	return points[len(points)-1].K, nil
}
