package stats

import (
	"errors"
	"math"
)

// This file implements the information-theoretic machinery behind the
// paper's Fig. 6: entropy of application-profile vectors, joint entropy,
// mutual information, and the Normalized Mutual Information (NMI) used to
// decide how much per-user history is worth keeping.
//
// The paper computes "the entropy of the joint distribution of T_x(u) and
// T_{x-n}(u) over applications 1 through 6" without saying how a joint
// distribution is formed from two marginal traffic vectors. We use the
// maximum-diagonal coupling: put min(p_i, q_i) mass on the diagonal cell
// (i, i) and spread the residual marginal mass proportionally off-diagonal.
// This coupling has the properties the figure requires: identical profiles
// give NMI = 1, disjoint supports give NMI = 0, and NMI grows monotonically
// as the two profiles converge. The choice is documented in DESIGN.md §5.

// Normalize scales a non-negative vector to sum to 1. A zero vector is
// returned unchanged (all zeros). The input is not mutated.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	total := Sum(xs)
	if total <= 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / total
	}
	return out
}

// Entropy returns the Shannon entropy (base 2) of a probability vector.
// Zero entries contribute nothing. Inputs are assumed normalized; callers
// with raw volumes should pass Normalize(xs).
func Entropy(p []float64) float64 {
	var h float64
	for _, pi := range p {
		if pi > 0 {
			h -= float64(pi * math.Log2(pi))
		}
	}
	return h
}

// ErrDimensionMismatch is returned when two distributions differ in length.
var ErrDimensionMismatch = errors.New("stats: dimension mismatch")

// JointMaxDiagonal builds the maximum-diagonal coupling of two probability
// vectors p and q of equal length k: a k×k joint distribution J with
// marginals p (rows) and q (columns) maximizing the diagonal mass.
//
// Construction: J[i][i] = min(p_i, q_i). The leftover row mass
// r_i = p_i − J[i][i] and column mass c_j = q_j − J[j][j] are matched
// proportionally: J[i][j] += r_i · c_j / R for i ≠ j, where R = Σ r = Σ c.
func JointMaxDiagonal(p, q []float64) ([][]float64, error) {
	if len(p) != len(q) {
		return nil, ErrDimensionMismatch
	}
	k := len(p)
	joint := make([][]float64, k)
	for i := range joint {
		joint[i] = make([]float64, k)
	}
	rowRes := make([]float64, k)
	colRes := make([]float64, k)
	var residual float64
	for i := 0; i < k; i++ {
		d := math.Min(p[i], q[i])
		joint[i][i] = d
		rowRes[i] = p[i] - d
		colRes[i] = q[i] - d
		residual += rowRes[i]
	}
	if residual > 0 {
		for i := 0; i < k; i++ {
			if rowRes[i] == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				if colRes[j] == 0 {
					continue
				}
				joint[i][j] += rowRes[i] * colRes[j] / residual
			}
		}
	}
	return joint, nil
}

// JointEntropy returns the Shannon entropy of a joint distribution matrix.
func JointEntropy(joint [][]float64) float64 {
	var h float64
	for _, row := range joint {
		for _, pij := range row {
			if pij > 0 {
				h -= float64(pij * math.Log2(pij))
			}
		}
	}
	return h
}

// MutualInformation returns I(p; q) = H(p) + H(q) − H(p, q) under the
// maximum-diagonal coupling. Raw (unnormalized) volume vectors are accepted
// and normalized internally. The result is clamped to be non-negative to
// absorb floating-point slack.
func MutualInformation(p, q []float64) (float64, error) {
	pn, qn := Normalize(p), Normalize(q)
	joint, err := JointMaxDiagonal(pn, qn)
	if err != nil {
		return 0, err
	}
	mi := Entropy(pn) + Entropy(qn) - JointEntropy(joint)
	if mi < 0 {
		mi = 0
	}
	return mi, nil
}

// NMI returns the Normalized Mutual Information of the paper's Fig. 6:
// I(p; q) normalized by H(p) (the entropy of the "current day" profile).
// When H(p) = 0 (the user used a single application category, or no
// traffic), NMI is defined as 1 if the distributions are identical after
// normalization and 0 otherwise.
func NMI(p, q []float64) (float64, error) {
	pn, qn := Normalize(p), Normalize(q)
	if len(pn) != len(qn) {
		return 0, ErrDimensionMismatch
	}
	hp := Entropy(pn)
	if hp == 0 {
		if vectorsEqual(pn, qn) {
			return 1, nil
		}
		return 0, nil
	}
	mi, err := MutualInformation(pn, qn)
	if err != nil {
		return 0, err
	}
	nmi := mi / hp
	if nmi > 1 {
		nmi = 1
	}
	return nmi, nil
}

func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	const eps = 1e-12
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}
