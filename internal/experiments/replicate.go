package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/s3wlan/s3wlan/internal/runner"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/synth"
)

// ReplicatedFig12Result aggregates the headline comparison over several
// independently generated campuses (different seeds), giving the gain a
// confidence interval instead of a single-trace point estimate.
type ReplicatedFig12Result struct {
	Seeds []int64
	// Gains and PeakGains are the per-seed percentages.
	Gains     []float64
	PeakGains []float64
	// MeanGain and GainCI95 summarize the gains.
	MeanGain, GainCI95 float64
	// MeanPeakGain and PeakGainCI95 summarize the leave-peak gains.
	MeanPeakGain, PeakGainCI95 float64
	// Wins counts seeds where S³ beat LLF overall.
	Wins int
}

// ReplicateFig12 runs the full prepare-train-simulate-compare pipeline
// once per seed. Replications are fully independent (each owns its
// generated campus), so they fan out across rcfg's worker pool; the
// per-seed results land in seed order regardless of worker count.
func ReplicateFig12(campus synth.Config, trainDays int, seeds []int64, rcfg runner.Config) (*ReplicatedFig12Result, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiments: no seeds")
	}
	if rcfg.Label == "" {
		rcfg.Label = "replicate-fig12"
	}
	type seedOutcome struct {
		gain, peakGain float64
	}
	outcomes, err := runner.Map(rcfg, seeds,
		func(seed int64) (seedOutcome, error) {
			cfg := campus
			cfg.Seed = seed
			d, err := Prepare(cfg, trainDays)
			if err != nil {
				return seedOutcome{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			// Seed replications already occupy the pool; the inner
			// S³-vs-LLF pair runs serially within its replication.
			d.Workers = 1
			fig, err := Fig12(d)
			if err != nil {
				return seedOutcome{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			return seedOutcome{gain: fig.GainPercent, peakGain: fig.LeavePeakGainPercent}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &ReplicatedFig12Result{Seeds: seeds}
	for _, o := range outcomes {
		res.Gains = append(res.Gains, o.gain)
		res.PeakGains = append(res.PeakGains, o.peakGain)
		if o.gain > 0 {
			res.Wins++
		}
	}
	res.MeanGain, res.GainCI95 = stats.MeanCI(res.Gains, 0.95)
	res.MeanPeakGain, res.PeakGainCI95 = stats.MeanCI(res.PeakGains, 0.95)
	return res, nil
}

// Render formats the replication as text.
func (r *ReplicatedFig12Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 12 replicated over %d seeds\n", len(r.Seeds))
	fmt.Fprintf(&sb, "  gain: %.1f%% ± %.1f%%   leave-peak gain: %.1f%% ± %.1f%%   wins: %d/%d\n",
		r.MeanGain, r.GainCI95, r.MeanPeakGain, r.PeakGainCI95, r.Wins, len(r.Seeds))
	fmt.Fprintf(&sb, "  %-8s %-10s %-10s\n", "seed", "gain", "peak gain")
	for i, seed := range r.Seeds {
		fmt.Fprintf(&sb, "  %-8d %+-9.1f%% %+-9.1f%%\n",
			seed, r.Gains[i], r.PeakGains[i])
	}
	return sb.String()
}
