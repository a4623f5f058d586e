package analysis

import (
	"encoding/csv"
	"io"
	"strconv"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// CSV exports: each figure result writes a tidy table suitable for
// external plotting tools. Columns are stable and documented per method.

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func cdfRows(series string, c *stats.CDF, n int) [][]string {
	var rows [][]string
	for _, p := range c.Points(n) {
		rows = append(rows, []string{series, f(p.X), f(p.Y)})
	}
	return rows
}

// WriteCSV emits columns: series (peak|average), x (balance index),
// y (cumulative fraction).
func (r *Fig2Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"series", "balance_index", "cdf"}}
	rows = append(rows, cdfRows("peak", r.PeakCDF, 50)...)
	rows = append(rows, cdfRows("average", r.AverageCDF, 50)...)
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: sub_period_seconds, s, cdf.
func (r *Fig3Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"sub_period_seconds", "s", "cdf"}}
	for _, sp := range []int64{300, 600, 1200} {
		c, ok := r.CDFBySubPeriod[sp]
		if !ok {
			continue
		}
		for _, p := range c.Points(50) {
			rows = append(rows, []string{strconv.FormatInt(sp, 10), f(p.X), f(p.Y)})
		}
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: time, user_balance, load_balance.
func (r *Fig4Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"time", "user_balance", "load_balance"}}
	for i := range r.Times {
		rows = append(rows, []string{
			trace.FormatTime(r.Times[i]),
			f(r.UserBalance[i]),
			f(r.LoadBalance[i]),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: window_seconds, fraction, cdf.
func (r *Fig5Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"window_seconds", "fraction", "cdf"}}
	for _, win := range []int64{600, 1200, 1800} {
		c, ok := r.CDFByWindow[win]
		if !ok {
			continue
		}
		for _, p := range c.Points(50) {
			rows = append(rows, []string{strconv.FormatInt(win, 10), f(p.X), f(p.Y)})
		}
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: age_days, point_nmi, cumulative_nmi.
func (r *Fig6Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"age_days", "point_nmi", "cumulative_nmi"}}
	for i, n := range r.Ages {
		rows = append(rows, []string{
			strconv.Itoa(n), f(r.PointNMI[i]), f(r.CumulativeNMI[i]),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: k, gap, sk, log_w.
func (r *Fig7Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"k", "gap", "sk", "log_w"}}
	for _, p := range r.Curve {
		rows = append(rows, []string{
			strconv.Itoa(p.K), f(p.Gap), f(p.SK), f(p.LogW),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: group, size, then one share column per realm.
func (r *Fig8Result) WriteCSV(out io.Writer) error {
	header := []string{"group", "size"}
	for _, realm := range apps.Realms() {
		header = append(header, realm.String())
	}
	rows := [][]string{header}
	for g := 0; g < r.K; g++ {
		row := []string{strconv.Itoa(g + 1), strconv.Itoa(r.Sizes[g])}
		for _, v := range r.Centroids[g] {
			row = append(row, f(v))
		}
		rows = append(rows, row)
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits columns: type_i, type_j, probability.
func (r *Table1Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"type_i", "type_j", "probability"}}
	for i := 0; i < r.K; i++ {
		for j := 0; j < r.K; j++ {
			rows = append(rows, []string{
				strconv.Itoa(i + 1), strconv.Itoa(j + 1), f(r.Matrix[i][j]),
			})
		}
	}
	return csv.NewWriter(out).WriteAll(rows)
}
