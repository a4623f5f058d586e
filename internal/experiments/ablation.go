package experiments

import (
	"fmt"
	"strings"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out beyond the paper's own figures:
//
//   - the controller's load-report staleness (the herd-effect lever that
//     makes load-only balancing fragile),
//   - the full baseline panel (is S³'s edge really the social signal, or
//     just count-balancing?),
//   - the S³ balance guard (how much load-awareness the social dispersal
//     needs), and
//   - the co-arrival batch window (the value of Algorithm 1's joint
//     clique placement over purely online decisions).

// AblationBaselinesResult compares S³ against every baseline policy.
type AblationBaselinesResult struct {
	// Policies and Means are parallel; Means[i] is the mean normalized
	// balance index of Policies[i].
	Policies []string
	Means    []float64
	// S3Mean is the S³ result on the same data.
	S3Mean float64
}

// AblationBaselines runs the full baseline panel. The panel entries and
// the S³ run are independent simulations, so they all run concurrently
// on the experiment pool.
func AblationBaselines(d *Data) (*AblationBaselinesResult, error) {
	model, err := d.trainModel(society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Factories, not instances: each builds a selector per domain, and
	// Random and RoundRobin keep per-domain state.
	res := &AblationBaselinesResult{
		Policies: []string{"LLF", "LeastUsers", "StrongestRSSI", "Random", "RoundRobin"},
	}
	cells := []cell{
		baselineCell(llf),
		baselineCell(func(trace.ControllerID, []trace.AP) wlan.Selector { return baseline.LeastUsers{} }),
		baselineCell(func(trace.ControllerID, []trace.AP) wlan.Selector { return baseline.StrongestRSSI{} }),
		baselineCell(func(trace.ControllerID, []trace.AP) wlan.Selector { return baseline.NewRandom(1) }),
		baselineCell(func(trace.ControllerID, []trace.AP) wlan.Selector { return &baseline.RoundRobin{} }),
		s3Cell(model, core.DefaultSelectorConfig()),
	}
	means, err := d.meanBalances("ablation-baselines", cells)
	if err != nil {
		return nil, err
	}
	n := len(res.Policies)
	res.Means, res.S3Mean = means[:n:n], means[n]
	return res, nil
}

// Render formats the ablation as text.
func (r *AblationBaselinesResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: S3 vs baseline panel (mean normalized balance index)\n")
	fmt.Fprintf(&sb, "  %-16s %-10s %-10s\n", "policy", "balance", "S3 gain")
	for i, p := range r.Policies {
		gain := 0.0
		if r.Means[i] > 0 {
			gain = (r.S3Mean - r.Means[i]) / r.Means[i] * 100
		}
		fmt.Fprintf(&sb, "  %-16s %-10.4f %+.1f%%\n", p, r.Means[i], gain)
	}
	fmt.Fprintf(&sb, "  %-16s %-10.4f\n", "S3", r.S3Mean)
	return sb.String()
}

// AblationStalenessResult sweeps the controller's load-report interval.
type AblationStalenessResult struct {
	// IntervalsSeconds[i] pairs with S3Means[i] and LLFMeans[i];
	// 0 means live load.
	IntervalsSeconds []int64
	S3Means          []float64
	LLFMeans         []float64
}

// AblationStaleness sweeps the report interval for both policies; all
// interval × policy cells run concurrently on the experiment pool.
func AblationStaleness(d *Data, intervals []int64) (*AblationStalenessResult, error) {
	if len(intervals) == 0 {
		intervals = []int64{0, 60, 180, 300, 600}
	}
	res := &AblationStalenessResult{
		IntervalsSeconds: intervals,
		S3Means:          make([]float64, len(intervals)),
		LLFMeans:         make([]float64, len(intervals)),
	}
	model, err := d.trainModel(society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cells := make([]cell, 0, 2*len(intervals))
	for _, iv := range intervals {
		s3, base := s3Cell(model, core.DefaultSelectorConfig()), baselineCell(llf)
		s3.reportEvery, base.reportEvery = iv, iv
		cells = append(cells, s3, base)
	}
	means, err := d.meanBalances("ablation-staleness", cells)
	if err != nil {
		return nil, err
	}
	for i := range intervals {
		res.S3Means[i], res.LLFMeans[i] = means[2*i], means[2*i+1]
	}
	return res, nil
}

// Render formats the ablation as text.
func (r *AblationStalenessResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: load-report staleness (controller polling period)\n")
	fmt.Fprintf(&sb, "  %-12s %-10s %-10s %-10s\n", "interval", "S3", "LLF", "gain")
	for i, iv := range r.IntervalsSeconds {
		gain := 0.0
		if r.LLFMeans[i] > 0 {
			gain = (r.S3Means[i] - r.LLFMeans[i]) / r.LLFMeans[i] * 100
		}
		label := "live"
		if iv > 0 {
			label = fmt.Sprintf("%ds", iv)
		}
		fmt.Fprintf(&sb, "  %-12s %-10.4f %-10.4f %+.1f%%\n",
			label, r.S3Means[i], r.LLFMeans[i], gain)
	}
	return sb.String()
}

// AblationGuardResult sweeps S³'s balance guard.
type AblationGuardResult struct {
	Guards []float64
	Means  []float64
}

// AblationGuard sweeps SelectorConfig.BalanceGuard.
func AblationGuard(d *Data, guards []float64) (*AblationGuardResult, error) {
	if len(guards) == 0 {
		guards = []float64{0.1, 0.25, 0.5, 1, 2, 100}
	}
	model, err := d.trainModel(society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(guards))
	for i, g := range guards {
		cells[i] = s3Cell(model, core.DefaultSelectorConfig())
		cells[i].sel.BalanceGuard = g
	}
	means, err := d.meanBalances("ablation-guard", cells)
	if err != nil {
		return nil, err
	}
	return &AblationGuardResult{Guards: guards, Means: means}, nil
}

// Render formats the ablation as text.
func (r *AblationGuardResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: S3 balance guard\n")
	fmt.Fprintf(&sb, "  %-10s %-10s\n", "guard", "balance")
	for i, g := range r.Guards {
		fmt.Fprintf(&sb, "  %-10.2f %-10.4f\n", g, r.Means[i])
	}
	return sb.String()
}

// AblationBatchWindowResult sweeps the co-arrival batch window.
type AblationBatchWindowResult struct {
	WindowsSeconds []int64
	Means          []float64
}

// AblationBatchWindow sweeps the Algorithm 1 batching window; 0 disables
// joint placement (purely online decisions).
func AblationBatchWindow(d *Data, windows []int64) (*AblationBatchWindowResult, error) {
	if len(windows) == 0 {
		windows = []int64{0, 30, 60, 120, 300}
	}
	model, err := d.trainModel(society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(windows))
	for i, w := range windows {
		cells[i] = s3Cell(model, core.DefaultSelectorConfig())
		cells[i].batchWindow = w
	}
	means, err := d.meanBalances("ablation-batch", cells)
	if err != nil {
		return nil, err
	}
	return &AblationBatchWindowResult{WindowsSeconds: windows, Means: means}, nil
}

// Render formats the ablation as text.
func (r *AblationBatchWindowResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: Algorithm 1 co-arrival batch window\n")
	fmt.Fprintf(&sb, "  %-10s %-10s\n", "window", "balance")
	for i, w := range r.WindowsSeconds {
		fmt.Fprintf(&sb, "  %-10d %-10.4f\n", w, r.Means[i])
	}
	return sb.String()
}
