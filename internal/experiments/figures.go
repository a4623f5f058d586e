package experiments

import (
	"fmt"
	"strings"

	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/runner"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// defaultIntervals are the co-leave extraction intervals of Fig. 10 (the
// paper sweeps one to twenty minutes in five-minute steps).
var defaultIntervals = []int64{60, 300, 600, 900, 1200}

// defaultAlphas are the α values swept in Figs. 10 and 11.
var defaultAlphas = []float64{0.1, 0.3, 0.5}

// Fig10Result is the balance index as a function of the co-leaving
// extraction interval, one series per α.
type Fig10Result struct {
	Intervals []int64
	Alphas    []float64
	// Mean[a][i] is the mean normalized balance index for Alphas[a] and
	// Intervals[i].
	Mean [][]float64
	// BestInterval is the interval with the highest mean balance at
	// α = 0.3 (the paper finds five minutes).
	BestInterval int64
}

// Fig10 sweeps the co-leave extraction interval and α.
func Fig10(d *Data, intervals []int64, alphas []float64) (*Fig10Result, error) {
	if len(intervals) == 0 {
		intervals = defaultIntervals
	}
	if len(alphas) == 0 {
		alphas = defaultAlphas
	}
	cfgs := make([]society.Config, len(intervals))
	for i, iv := range intervals {
		cfgs[i] = society.DefaultConfig()
		cfgs[i].CoLeaveWindowSeconds = iv
		cfgs[i].HistoryDays = 0 // full history for this sweep
	}
	mean, err := d.alphaGrid("fig10", cfgs, alphas)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Intervals: intervals, Alphas: alphas, Mean: mean}
	bestVal := -1.0
	for i, v := range alpha03(alphas, mean) {
		if v > bestVal {
			bestVal = v
			res.BestInterval = intervals[i]
		}
	}
	return res, nil
}

// alphaGrid trains one model per society configuration (α plays no part
// in training, see trainModel), then replays every α × configuration
// cell; mean[a][i] is the mean balance of alphas[a] on cfgs[i].
func (d *Data) alphaGrid(label string, cfgs []society.Config, alphas []float64) ([][]float64, error) {
	models, err := runner.Map(d.runnerConfig(label+"-train"), cfgs, d.trainModel)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, 0, len(alphas)*len(cfgs))
	for _, alpha := range alphas {
		for _, m := range models {
			cells = append(cells, s3Cell(m.WithAlpha(alpha), core.DefaultSelectorConfig()))
		}
	}
	flat, err := d.meanBalances(label, cells)
	if err != nil {
		return nil, err
	}
	mean := make([][]float64, len(alphas))
	for a := range mean {
		mean[a] = flat[a*len(cfgs) : (a+1)*len(cfgs) : (a+1)*len(cfgs)]
	}
	return mean, nil
}

// alpha03 returns the α = 0.3 row of an α grid, or its first row when
// 0.3 was not swept.
func alpha03(alphas []float64, mean [][]float64) []float64 {
	for a, alpha := range alphas {
		if alpha == 0.3 {
			return mean[a]
		}
	}
	return mean[0]
}

// Render formats the figure as text.
func (r *Fig10Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 10: balance index vs co-leaving extraction interval\n")
	fmt.Fprintf(&sb, "  best interval: %d min\n", r.BestInterval/60)
	fmt.Fprintf(&sb, "  %-12s", "interval")
	for _, a := range r.Alphas {
		fmt.Fprintf(&sb, " α=%-8.1f", a)
	}
	sb.WriteString("\n")
	for i, iv := range r.Intervals {
		fmt.Fprintf(&sb, "  %-10d m", iv/60)
		for a := range r.Alphas {
			fmt.Fprintf(&sb, " %-10.4f", r.Mean[a][i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig11Result is the balance index as a function of training-history
// length, one series per α.
type Fig11Result struct {
	HistoryDays []int
	Alphas      []float64
	// Mean[a][i] is the mean balance for Alphas[a], HistoryDays[i].
	Mean [][]float64
	// PlateauDays is the first history length whose α = 0.3 balance
	// reaches 99% of the sweep's maximum (the paper finds ≈15 days).
	PlateauDays int
}

// Fig11 sweeps the amount of training history.
func Fig11(d *Data, historyDays []int, alphas []float64) (*Fig11Result, error) {
	if len(historyDays) == 0 {
		historyDays = []int{1, 3, 5, 7, 10, 13, 15, 18, 20}
	}
	if len(alphas) == 0 {
		alphas = defaultAlphas
	}
	cfgs := make([]society.Config, len(historyDays))
	for i, hd := range historyDays {
		cfgs[i] = society.DefaultConfig()
		cfgs[i].HistoryDays = hd
	}
	mean, err := d.alphaGrid("fig11", cfgs, alphas)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{HistoryDays: historyDays, Alphas: alphas, Mean: mean,
		PlateauDays: stats.Plateau(historyDays, alpha03(alphas, mean))}, nil
}

// Render formats the figure as text.
func (r *Fig11Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 11: balance index vs days of history\n")
	fmt.Fprintf(&sb, "  plateau at ≈ %d days\n", r.PlateauDays)
	fmt.Fprintf(&sb, "  %-12s", "days")
	for _, a := range r.Alphas {
		fmt.Fprintf(&sb, " α=%-8.1f", a)
	}
	sb.WriteString("\n")
	for i, hd := range r.HistoryDays {
		fmt.Fprintf(&sb, "  %-12d", hd)
		for a := range r.Alphas {
			fmt.Fprintf(&sb, " %-10.4f", r.Mean[a][i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// DomainComparison is one controller domain's S³-vs-LLF outcome.
type DomainComparison struct {
	Controller trace.ControllerID
	MeanS3     float64
	CIS3       float64
	MeanLLF    float64
	CILLF      float64
}

// Fig12Result is the headline comparison of S³ against LLF.
type Fig12Result struct {
	Domains []DomainComparison
	// S3Series and LLFSeries carry the per-bin balance time series of
	// both policies for plotting (see WriteSeriesCSV).
	S3Series, LLFSeries *PolicySeries
	// Overall pools all domains' active bins.
	Overall metrics.Comparison
	// GainPercent is the overall mean balance gain (paper: 41.2%).
	GainPercent float64
	// LeavePeakGainPercent is the gain restricted to departure-peak hours
	// (paper: 52.1%).
	LeavePeakGainPercent float64
	// ErrorBarReductionPercent is the reduction of the 95% confidence
	// error bar of the per-site mean balance across controller domains —
	// the paper's "error bar can be reduced by 72.1% overall" statistic
	// (S³ performs consistently across sites; LLF's quality varies with
	// each site's churn).
	ErrorBarReductionPercent float64
}

// Fig12 replays both policies over the test split (concurrently, on the
// experiment pool) and compares them.
func Fig12(d *Data) (*Fig12Result, error) {
	results, err := d.replayS3AndLLF("fig12")
	if err != nil {
		return nil, err
	}
	s3Res, llfRes := results[0], results[1]
	s3, err := scoreReplay(s3Res, d.Campus.Epoch)
	if err != nil {
		return nil, err
	}
	llf, err := scoreReplay(llfRes, d.Campus.Epoch)
	if err != nil {
		return nil, err
	}

	res := &Fig12Result{S3Series: s3.series, LLFSeries: llf.series}
	var allS3, allLLF []float64
	var domainMeansS3, domainMeansLLF []float64
	for _, c := range s3Res.Controllers() {
		s3Vals, llfVals := s3.active[c], llf.active[c]
		if len(s3Vals) == 0 || len(llfVals) == 0 {
			continue
		}
		mS3, ciS3 := stats.MeanCI(s3Vals, 0.95)
		mLLF, ciLLF := stats.MeanCI(llfVals, 0.95)
		res.Domains = append(res.Domains, DomainComparison{
			Controller: c,
			MeanS3:     mS3, CIS3: ciS3,
			MeanLLF: mLLF, CILLF: ciLLF,
		})
		allS3 = append(allS3, s3Vals...)
		allLLF = append(allLLF, llfVals...)
		domainMeansS3 = append(domainMeansS3, mS3)
		domainMeansLLF = append(domainMeansLLF, mLLF)
	}
	if len(allS3) == 0 {
		return nil, fmt.Errorf("experiments: no balance samples")
	}
	res.Overall, err = metrics.Compare(allS3, allLLF)
	if err != nil {
		return nil, err
	}
	res.GainPercent = res.Overall.GainPercent
	_, ciAcrossS3 := stats.MeanCI(domainMeansS3, 0.95)
	_, ciAcrossLLF := stats.MeanCI(domainMeansLLF, 0.95)
	if ciAcrossLLF > 0 {
		res.ErrorBarReductionPercent = (ciAcrossLLF - ciAcrossS3) / ciAcrossLLF * 100
	}

	// Departure-peak gain.
	if len(s3.peak) > 0 && len(llf.peak) > 0 {
		mS3 := stats.Mean(s3.peak)
		mLLF := stats.Mean(llf.peak)
		if mLLF > 0 {
			res.LeavePeakGainPercent = (mS3 - mLLF) / mLLF * 100
		}
	}
	return res, nil
}

// replayS3AndLLF trains S³ at the paper's operating point, then replays
// an S³ cell and an LLF cell, in that order.
func (d *Data) replayS3AndLLF(label string) ([]*wlan.Result, error) {
	model, err := d.trainModel(society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return d.replay(label, []cell{s3Cell(model, core.DefaultSelectorConfig()), baselineCell(llf)})
}

// Render formats the figure as text.
func (r *Fig12Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 12: S3 vs LLF, normalized balance index per controller domain (95% CI)\n")
	fmt.Fprintf(&sb, "  overall gain: %.1f%%   leave-peak gain: %.1f%%   error-bar reduction: %.1f%%\n",
		r.GainPercent, r.LeavePeakGainPercent, r.ErrorBarReductionPercent)
	fmt.Fprintf(&sb, "  %-10s %-10s %-10s %-10s %-10s\n",
		"domain", "S3", "±CI", "LLF", "±CI")
	for _, dc := range r.Domains {
		fmt.Fprintf(&sb, "  %-10s %-10.4f %-10.4f %-10.4f %-10.4f\n",
			dc.Controller, dc.MeanS3, dc.CIS3, dc.MeanLLF, dc.CILLF)
	}
	return sb.String()
}
