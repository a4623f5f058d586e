// Package cluster implements the unsupervised-learning substrate of the S³
// study: k-means clustering (k-means++ seeding, multiple restarts) over
// user application profiles, intra-cluster dispersion, and the Tibshirani
// gap statistic used by the paper to select k (it finds k = 4).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Result is a completed clustering: assignments, centroids, and the
// within-cluster dispersion.
type Result struct {
	// K is the number of clusters.
	K int
	// Labels[i] is the cluster (0..K-1) of point i.
	Labels []int
	// Centroids[c] is the mean of cluster c's members.
	Centroids [][]float64
	// Inertia is the total squared distance of points to their centroid.
	Inertia float64
}

// Config controls the k-means run. The zero value is completed with
// sensible defaults by KMeans.
type Config struct {
	// Restarts is the number of independent seedings; the best inertia
	// wins (default 8).
	Restarts int
}

// A restart's Lloyd iterations stop after maxIterations, or once
// inertia improves by less than the fraction tolerance.
const maxIterations, tolerance = 100, 1e-6

// Errors returned by KMeans.
var (
	ErrNoPoints   = errors.New("cluster: no points")
	ErrBadK       = errors.New("cluster: k must be in [1, len(points)]")
	ErrRaggedData = errors.New("cluster: points have differing dimensions")
)

// KMeans clusters points into k groups using Lloyd's algorithm with
// k-means++ seeding and multiple restarts. rng drives all randomness so
// runs are reproducible.
func KMeans(points [][]float64, k int, rng *rand.Rand, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d",
				ErrRaggedData, i, len(p), dim)
		}
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 8
	}

	best := &Result{Inertia: math.Inf(1)}
	for r := 0; r < restarts; r++ {
		res := lloyd(points, k, rng)
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func lloyd(points [][]float64, k int, rng *rand.Rand) *Result {
	dim := len(points[0])
	centroids := seedPlusPlus(points, k, rng)
	labels := make([]int, len(points))
	counts := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}

	prevInertia := math.Inf(1)
	var inertia float64
	for iter := 0; iter < maxIterations; iter++ {
		inertia = 0
		for c := 0; c < k; c++ {
			counts[c] = 0
			for d := range sums[c] {
				sums[c][d] = 0
			}
		}
		for i, p := range points {
			c, d2 := nearestCentroid(p, centroids)
			labels[i] = c
			inertia += d2
			counts[c]++
			for d, x := range p {
				sums[c][d] += x
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to avoid dead centroids.
				centroids[c] = append([]float64(nil), farthestPoint(points, centroids, labels)...)
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if prevInertia-inertia <= tolerance*math.Max(prevInertia, 1) {
			break
		}
		prevInertia = inertia
	}

	// Final consistency pass: assign against the last centroids, then set
	// each centroid to the exact mean of its members and measure inertia
	// against those means. This guarantees the returned invariants
	// (centroid == member mean, Inertia == Dispersion) even when the loop
	// exits on the iteration cap or tolerance.
	for c := 0; c < k; c++ {
		counts[c] = 0
		for d := range sums[c] {
			sums[c][d] = 0
		}
	}
	for i, p := range points {
		c, _ := nearestCentroid(p, centroids)
		labels[i] = c
		counts[c]++
		for d, x := range p {
			sums[c][d] += x
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue // keep the stale centroid; it has no members
		}
		for d := range centroids[c] {
			centroids[c][d] = sums[c][d] / float64(counts[c])
		}
	}
	inertia = 0
	for i, p := range points {
		inertia += sqDist(p, centroids[labels[i]])
	}
	return &Result{K: k, Labels: labels, Centroids: centroids, Inertia: inertia}
}

// seedPlusPlus picks k initial centroids via k-means++: the first uniformly
// at random, the rest proportional to squared distance from the nearest
// chosen centroid.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(n)]
	centroids = append(centroids, append([]float64(nil), first...))

	d2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			_, dist := nearestCentroid(p, centroids)
			d2[i] = dist
			total += dist
		}
		var next []float64
		if total == 0 {
			// All points coincide with a centroid; pick any.
			next = points[rng.Intn(n)]
		} else {
			target := rng.Float64() * total
			var acc float64
			idx := n - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
			next = points[idx]
		}
		centroids = append(centroids, append([]float64(nil), next...))
	}
	return centroids
}

func nearestCentroid(p []float64, centroids [][]float64) (int, float64) {
	bestC, bestD := 0, math.Inf(1)
	for c, cen := range centroids {
		d := sqDist(p, cen)
		if d < bestD {
			bestC, bestD = c, d
		}
	}
	return bestC, bestD
}

func farthestPoint(points [][]float64, centroids [][]float64, labels []int) []float64 {
	bestI, bestD := 0, -1.0
	for i, p := range points {
		d := sqDist(p, centroids[labels[i]])
		if d > bestD {
			bestI, bestD = i, d
		}
	}
	return points[bestI]
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// Dispersion returns W_k, the pooled within-cluster dispersion used by the
// gap statistic: Σ_r (1/(2 n_r)) Σ_{i,j∈r} ‖x_i − x_j‖², which equals
// Σ_r Σ_{i∈r} ‖x_i − μ_r‖² — i.e. the inertia.
func Dispersion(points [][]float64, labels []int, k int) float64 {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	counts := make([]int, k)
	for i, p := range points {
		c := labels[i]
		counts[c]++
		for d, x := range p {
			sums[c][d] += x
		}
	}
	var w float64
	for i, p := range points {
		c := labels[i]
		if counts[c] == 0 {
			continue
		}
		for d, x := range p {
			mu := sums[c][d] / float64(counts[c])
			diff := x - mu
			w += float64(diff * diff)
		}
	}
	return w
}
