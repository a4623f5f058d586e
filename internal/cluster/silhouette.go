package cluster

import (
	"errors"
	"math"
	"math/rand"
)

// Silhouette analysis — an alternative cluster-count heuristic to the gap
// statistic (the paper notes k selection "is an open research problem"
// with several heuristics; this one cross-checks Fig. 7's choice).

// ErrSilhouetteK is returned when silhouette is requested for k < 2.
var ErrSilhouetteK = errors.New("cluster: silhouette needs k >= 2")

// Silhouette returns the mean silhouette coefficient of a clustering:
// s(i) = (b(i) − a(i)) / max(a(i), b(i)), where a is the mean distance to
// the point's own cluster and b the smallest mean distance to another
// cluster. Range [−1, 1]; higher is better. Points alone in their
// cluster contribute 0.
func Silhouette(points [][]float64, labels []int, k int) (float64, error) {
	n := len(points)
	if n == 0 {
		return 0, ErrNoPoints
	}
	if k < 2 {
		return 0, ErrSilhouetteK
	}
	if len(labels) != n {
		return 0, errors.New("cluster: labels/points length mismatch")
	}
	counts := make([]int, k)
	for _, l := range labels {
		if l < 0 || l >= k {
			return 0, errors.New("cluster: label out of range")
		}
		counts[l]++
	}

	var total float64
	sums := make([]float64, k) // reused per point: Σ dist to each cluster
	for i := 0; i < n; i++ {
		for c := range sums {
			sums[c] = 0
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sums[labels[j]] += math.Sqrt(sqDist(points[i], points[j]))
		}
		own := labels[i]
		if counts[own] <= 1 {
			continue // singleton: s = 0 by convention
		}
		a := sums[own] / float64(counts[own]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue // no other non-empty cluster
		}
		if denom := math.Max(a, b); denom > 0 {
			total += (b - a) / denom
		}
	}
	return total / float64(n), nil
}

// SilhouetteCurve clusters points for each k in [2, maxK] and returns the
// mean silhouette per k plus the best k. Complexity is O(maxK · n²); use
// on samples, not full traces.
func SilhouetteCurve(points [][]float64, maxK int, rng *rand.Rand, cfg Config) (scores []float64, bestK int, err error) {
	if len(points) == 0 {
		return nil, 0, ErrNoPoints
	}
	if maxK < 2 {
		return nil, 0, ErrSilhouetteK
	}
	maxK = min(maxK, len(points))
	best := math.Inf(-1)
	for k := 2; k <= maxK; k++ {
		res, err := KMeans(points, k, rng, cfg)
		if err != nil {
			return nil, 0, err
		}
		s, err := Silhouette(points, res.Labels, k)
		if err != nil {
			return nil, 0, err
		}
		scores = append(scores, s)
		if s > best {
			best = s
			bestK = k
		}
	}
	return scores, bestK, nil
}
