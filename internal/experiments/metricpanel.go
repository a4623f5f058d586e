package experiments

import (
	"fmt"
	"strings"

	"github.com/s3wlan/s3wlan/internal/metrics"
)

// MetricPanelResult cross-checks the headline comparison under the
// alternative fairness metrics the paper mentions (max-min, proportional
// fairness) plus the Gini coefficient: S³'s advantage must not be an
// artifact of the Chiu–Jain index.
type MetricPanelResult struct {
	// Metrics names the rows: chiu-jain, max-min, proportional, gini.
	Metrics []string
	// S3 and LLF are the mean per-bin values under each metric. For gini,
	// lower is better; for the others, higher is better.
	S3, LLF []float64
}

// MetricPanel replays both policies once (concurrently, on the experiment
// pool) and evaluates every fairness metric over the same active bins.
func MetricPanel(d *Data) (*MetricPanelResult, error) {
	results, err := d.replayS3AndLLF("metric-panel")
	if err != nil {
		return nil, err
	}
	res := &MetricPanelResult{
		Metrics: []string{"chiu-jain", "max-min", "proportional", "gini"},
	}
	evals := []func([]float64) (float64, error){
		metrics.NormalizedBalanceIndex,
		metrics.MaxMinRatio,
		metrics.ProportionalFairness,
		metrics.Gini,
	}
	if res.S3, err = meanMetrics(results[0], evals...); err != nil {
		return nil, err
	}
	if res.LLF, err = meanMetrics(results[1], evals...); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the panel as text.
func (r *MetricPanelResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: fairness-metric panel (per-bin means)\n")
	fmt.Fprintf(&sb, "  %-14s %-10s %-10s %-10s\n", "metric", "S3", "LLF", "winner")
	for i, name := range r.Metrics {
		s3Wins := r.S3[i] > r.LLF[i]
		if name == "gini" {
			s3Wins = r.S3[i] < r.LLF[i] // lower Gini is better
		}
		winner := "LLF"
		if s3Wins {
			winner = "S3"
		}
		fmt.Fprintf(&sb, "  %-14s %-10.4f %-10.4f %s\n", name, r.S3[i], r.LLF[i], winner)
	}
	return sb.String()
}
