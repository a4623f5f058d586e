package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV exports for the evaluation figures, mirroring internal/analysis.

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV emits columns: interval_seconds, alpha, balance.
func (r *Fig10Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"interval_seconds", "alpha", "balance"}}
	for a, alpha := range r.Alphas {
		for i, iv := range r.Intervals {
			rows = append(rows, []string{
				strconv.FormatInt(iv, 10), f(alpha), f(r.Mean[a][i]),
			})
		}
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: history_days, alpha, balance.
func (r *Fig11Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"history_days", "alpha", "balance"}}
	for a, alpha := range r.Alphas {
		for i, hd := range r.HistoryDays {
			rows = append(rows, []string{
				strconv.Itoa(hd), f(alpha), f(r.Mean[a][i]),
			})
		}
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: domain, policy, mean, ci95.
func (r *Fig12Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"domain", "policy", "mean", "ci95"}}
	for _, d := range r.Domains {
		rows = append(rows,
			[]string{string(d.Controller), "S3", f(d.MeanS3), f(d.CIS3)},
			[]string{string(d.Controller), "LLF", f(d.MeanLLF), f(d.CILLF)},
		)
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteSeriesCSV writes the Fig. 12 per-bin balance time series of both
// policies side by side (time, domain, S3, LLF) — the data behind the
// paper's balance-over-a-day plot.
func (r *Fig12Result) WriteSeriesCSV(out io.Writer) error {
	if r.S3Series == nil || r.LLFSeries == nil {
		return fmt.Errorf("experiments: Fig12Result has no series")
	}
	return WriteComparisonSeriesCSV(out, r.S3Series, r.LLFSeries)
}
