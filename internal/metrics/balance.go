package metrics

import (
	"errors"
	"fmt"
	"math"

	"github.com/s3wlan/s3wlan/internal/stats"
)

// ErrNoAPs is returned when a balance index is requested for zero APs.
var ErrNoAPs = errors.New("metrics: no APs")

// ErrNegativeLoad is returned when a load value is negative; throughputs
// are volumes and must be non-negative.
var ErrNegativeLoad = errors.New("metrics: negative load")

// BalanceIndex returns the Chiu–Jain fairness index of the per-AP loads:
//
//	B = (Σ T_i)² / (n · Σ T_i²)
//
// which ranges over [1/n, 1]; 1 means perfectly even load. When all loads
// are zero (an idle bin) the network is trivially balanced and B is defined
// as 1. An error is returned for an empty slice or negative loads.
func BalanceIndex(loads []float64) (float64, error) {
	n := len(loads)
	if n == 0 {
		return 0, ErrNoAPs
	}
	var sum, sumSq float64
	for _, t := range loads {
		if t < 0 || math.IsNaN(t) {
			return 0, fmt.Errorf("%w: %v", ErrNegativeLoad, t)
		}
		sum += t
		sumSq += float64(t * t)
	}
	if sum == 0 {
		return 1, nil
	}
	return sum * sum / (float64(n) * sumSq), nil
}

// NormalizedBalanceIndex maps the balance index from [1/n, 1] onto [0, 1]:
//
//	B̂ = (B − 1/n) / (1 − 1/n)
//
// For a single AP (n = 1) the index is always 1.
func NormalizedBalanceIndex(loads []float64) (float64, error) {
	n := len(loads)
	b, err := BalanceIndex(loads)
	if err != nil {
		return 0, err
	}
	if n == 1 {
		return 1, nil
	}
	inv := 1 / float64(n)
	v := (b - inv) / (1 - inv)
	// Guard floating-point slack at the boundaries.
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

// Series is a time series of balance indexes, one value per time bin.
type Series struct {
	// BinSeconds is the width of each bin.
	BinSeconds int64
	// Start is the timestamp (Unix seconds) of the first bin's left edge.
	Start int64
	// Values holds one normalized balance index per bin.
	Values []float64
	// Idle marks bins where the total load was zero (B defined as 1).
	Idle []bool
}

// BinTime returns the left-edge timestamp of bin i.
func (s *Series) BinTime(i int) int64 { return s.Start + int64(i)*s.BinSeconds }

// ActiveValues returns the balance indexes of non-idle bins only.
func (s *Series) ActiveValues() []float64 {
	out := make([]float64, 0, len(s.Values))
	for i, v := range s.Values {
		if i < len(s.Idle) && s.Idle[i] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Add appends the bin whose per-AP loads are given; a Series is built
// bin by bin.
func (s *Series) Add(loads []float64) error {
	v, err := NormalizedBalanceIndex(loads)
	if err != nil {
		return err
	}
	s.Values = append(s.Values, v)
	s.Idle = append(s.Idle, !Active(loads))
	return nil
}

// Active reports whether a bin's per-AP loads sum to anything but zero;
// the bins a Series marks Idle are the others.
func Active(loads []float64) bool {
	var total float64
	for _, t := range loads {
		total += t
	}
	return total != 0
}

// RelativeChanges returns the paper's S_i = (β_i − β_{i−1}) / β_{i−1}
// series over the given balance-index values. Bins with β_{i−1} = 0 are
// skipped (cannot be expressed as a relative change).
func RelativeChanges(values []float64) []float64 {
	out := make([]float64, 0, len(values))
	for i := 1; i < len(values); i++ {
		prev := values[i-1]
		if prev == 0 {
			continue
		}
		out = append(out, (values[i]-prev)/prev)
	}
	return out
}

// VarianceOfBalance returns the paper's Fig. 3 statistic for one
// hour-long period: the variance of the relative-change series of the
// sub-period balance indexes. It returns 0 when fewer than three
// sub-periods are available (no variability can be measured).
func VarianceOfBalance(subPeriodValues []float64) float64 {
	changes := RelativeChanges(subPeriodValues)
	if len(changes) < 2 {
		return 0
	}
	return stats.Variance(changes)
}

// Comparison summarizes one policy-vs-baseline experiment: the per-domain
// (or per-run) mean normalized balance indexes with confidence intervals,
// and the headline statistics the paper quotes in Fig. 12.
type Comparison struct {
	// MeanPolicy and MeanBaseline are overall mean normalized balance
	// indexes.
	MeanPolicy, MeanBaseline float64
	// CIPolicy and CIBaseline are the 95% confidence half-widths.
	CIPolicy, CIBaseline float64
	// GainPercent is (MeanPolicy − MeanBaseline) / MeanBaseline · 100.
	GainPercent float64
	// ErrorBarReductionPercent is (CIBaseline − CIPolicy)/CIBaseline · 100,
	// the paper's "error bar can be reduced by 72.1%" statistic.
	ErrorBarReductionPercent float64
}

// Compare computes the headline comparison statistics between a policy's
// balance-index samples and a baseline's.
func Compare(policy, baseline []float64) (Comparison, error) {
	if len(policy) == 0 || len(baseline) == 0 {
		return Comparison{}, errors.New("metrics: empty comparison input")
	}
	mp, cp := stats.MeanCI(policy, 0.95)
	mb, cb := stats.MeanCI(baseline, 0.95)
	c := Comparison{
		MeanPolicy:   mp,
		MeanBaseline: mb,
		CIPolicy:     cp,
		CIBaseline:   cb,
	}
	if mb > 0 {
		c.GainPercent = (mp - mb) / mb * 100
	}
	if cb > 0 {
		c.ErrorBarReductionPercent = (cb - cp) / cb * 100
	}
	return c, nil
}

// String renders the comparison in the style of the paper's Fig. 12 text.
func (c Comparison) String() string {
	return fmt.Sprintf(
		"policy %.4f ±%.4f vs baseline %.4f ±%.4f (gain %.1f%%, error-bar reduction %.1f%%)",
		c.MeanPolicy, c.CIPolicy, c.MeanBaseline, c.CIBaseline,
		c.GainPercent, c.ErrorBarReductionPercent)
}
