package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// PolicySeries is one policy's balance-index time series across domains —
// the data behind the classic S³-vs-LLF-over-a-day plot.
type PolicySeries struct {
	Policy     string
	BinSeconds int64
	// Times holds the bin left edges (identical across domains).
	Times []int64
	// ByDomain maps each controller to its per-bin normalized balance
	// values (NaN-free; idle bins carry 1 per the metric's definition).
	ByDomain map[trace.ControllerID][]float64
}

// replayScores is one replay's Fig 12 scoring, from one pass over its
// bins.
type replayScores struct {
	// series holds every bin's value, idle bins included.
	series *PolicySeries
	// active holds each domain's active-bin values in bin order.
	active map[trace.ControllerID][]float64
	// peak holds the active-bin values, domain by domain in Controllers()
	// order, of the bins that start in one of the leavePeakHours.
	peak []float64
}

// scoreReplay scores a replay for Fig 12; epoch dates its bins' hours.
func scoreReplay(res *wlan.Result, epoch int64) (*replayScores, error) {
	nBins, err := trace.NumBins(res.Start, res.End, res.BinSeconds)
	if err != nil {
		return nil, err
	}
	sc := &replayScores{
		series: &PolicySeries{
			Policy:     res.Policy,
			BinSeconds: res.BinSeconds,
			Times:      make([]int64, nBins),
			ByDomain:   make(map[trace.ControllerID][]float64, len(res.Domains)),
		},
		active: make(map[trace.ControllerID][]float64, len(res.Domains)),
	}
	for i := range sc.series.Times {
		sc.series.Times[i] = res.Start + int64(i)*res.BinSeconds
	}
	err = res.EachBin(func(c trace.ControllerID, bin int, loads []float64) error {
		v, err := metrics.NormalizedBalanceIndex(loads)
		if err != nil {
			return err
		}
		if bin == 0 {
			sc.series.ByDomain[c] = make([]float64, 0, nBins)
			sc.active[c] = make([]float64, 0, nBins)
		}
		sc.series.ByDomain[c] = append(sc.series.ByDomain[c], v)
		if metrics.Active(loads) {
			sc.active[c] = append(sc.active[c], v)
			if leavePeakHours[trace.HourOfDay(epoch, sc.series.Times[bin])] {
				sc.peak = append(sc.peak, v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// WriteComparisonSeriesCSV writes two policies' series side by side:
// columns time, domain, <policyA>, <policyB>, domains in ascending order. Both results must come from
// the same test trace (same bins).
func WriteComparisonSeriesCSV(out io.Writer, a, b *PolicySeries) error {
	if len(a.Times) != len(b.Times) {
		return fmt.Errorf("experiments: series lengths differ (%d vs %d)",
			len(a.Times), len(b.Times))
	}
	w := csv.NewWriter(out)
	header := []string{"time", "domain", a.Policy, b.Policy}
	if err := w.Write(header); err != nil {
		return err
	}
	domains := make([]trace.ControllerID, 0, len(a.ByDomain))
	for c := range a.ByDomain {
		domains = append(domains, c)
	}
	slices.Sort(domains)
	for _, c := range domains {
		aVals := a.ByDomain[c]
		bVals, ok := b.ByDomain[c]
		if !ok {
			return fmt.Errorf("experiments: domain %s missing from %s", c, b.Policy)
		}
		for i := range aVals {
			rec := []string{
				strconv.FormatInt(a.Times[i], 10),
				string(c),
				strconv.FormatFloat(aVals[i], 'g', 8, 64),
				strconv.FormatFloat(bVals[i], 'g', 8, 64),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}
