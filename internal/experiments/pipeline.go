// Package experiments implements the paper's evaluation (Section V):
// trace-driven simulation of S³ against LLF with the paper's protocol —
// four weeks of training data to learn sociality, the following days for
// AP-selection experiments — and the three evaluation artifacts: the
// parameter sweeps over the co-leaving extraction interval (Fig. 10) and
// the history length (Fig. 11), and the S³-vs-LLF comparison (Fig. 12).
package experiments

import (
	"errors"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/runner"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Data is a prepared experiment dataset: the generated campus trace split
// into training and test ranges, with profiles and demand estimates built
// from the training split only. Prepare's traces carry no flows: their
// training flows went straight into Profiles. Its trainings share one
// interning of Train and Profiles (a Data built otherwise interns anew).
type Data struct {
	Campus    synth.Config
	Full      *trace.Trace
	Train     *trace.Trace
	Test      *trace.Trace
	Profiles  *apps.ProfileStore
	Demands   *core.DemandEstimator
	TrainDays int
	// ReportIntervalSeconds is the controller's AP-load polling period
	// used in simulations (default 300; 0 = live load). Exposed so the
	// staleness ablation can vary it.
	ReportIntervalSeconds int64
	// BatchWindowSeconds groups co-arrivals for Algorithm 1 (default 60).
	BatchWindowSeconds int64
	// Workers bounds the concurrent sweep/ablation cells run on the
	// experiment pool (internal/runner); <= 0 means GOMAXPROCS. Every
	// cell owns its state, so parallel results are byte-identical to a
	// serial run.
	Workers int
	// Progress, when non-nil, receives one line per completed cell
	// (typically os.Stderr behind the CLIs' -progress flag).
	Progress io.Writer

	trainer *society.Trainer // shared by copies of the Data
}

// Prepare generates the campus and builds the training artifacts. The
// paper trains on four weeks (July 4–24) and tests on the following days
// (July 25–27); trainDays defaults to 28 with the remaining days as test.
// The training profiles are folded from the flows as they are drawn
// (synth.GenerateProfiles), so no flow list is ever held.
func Prepare(campus synth.Config, trainDays int) (*Data, error) {
	if trainDays <= 0 {
		trainDays = 28
	}
	if trainDays >= campus.Days {
		return nil, fmt.Errorf("experiments: trainDays %d must be < campus days %d",
			trainDays, campus.Days)
	}
	full, profiles, _, err := synth.GenerateProfiles(campus, campus.Epoch+int64(trainDays)*86400)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate campus: %w", err)
	}
	return prepare(full, profiles, campus, trainDays)
}

// PrepareTrace builds the experiment dataset from an existing trace (e.g.
// loaded from disk) instead of generating one. campus supplies the epoch
// and is recorded for reporting; its other fields need not match the
// trace.
func PrepareTrace(full *trace.Trace, campus synth.Config, trainDays int) (*Data, error) {
	return prepare(full, nil, campus, trainDays)
}

// prepare splits full after trainDays and builds the training artifacts,
// the profiles from the training flows unless they are given.
func prepare(full *trace.Trace, profiles *apps.ProfileStore, campus synth.Config, trainDays int) (*Data, error) {
	if trainDays <= 0 {
		trainDays = 28
	}
	cut := campus.Epoch + int64(trainDays)*86400
	train, test := full.SplitAt(cut)
	if len(train.Sessions) == 0 {
		return nil, fmt.Errorf("experiments: empty training split: no session connects before %d", cut)
	}
	if len(test.Sessions) == 0 {
		return nil, fmt.Errorf("experiments: empty test split: no session connects at or after %d", cut)
	}
	if profiles == nil {
		profiles = apps.BuildProfiles(train.Flows, campus.Epoch, apps.NewClassifier())
	}
	demands, err := core.NewDemandEstimator(train.Sessions)
	if err != nil {
		return nil, fmt.Errorf("experiments: demand estimator: %w", err)
	}
	return &Data{
		Campus:                campus,
		Full:                  full,
		Train:                 train,
		Test:                  test,
		Profiles:              profiles,
		Demands:               demands,
		TrainDays:             trainDays,
		ReportIntervalSeconds: 300,
		BatchWindowSeconds:    60,
		trainer:               society.NewTrainer(train, profiles),
	}, nil
}

// simConfig builds the common simulation config: demands come from the
// history-based estimator (the controller's belief), accounting from the
// sessions themselves.
func (d *Data) simConfig(selectorFor func(trace.ControllerID, []trace.AP) wlan.Selector) wlan.Config {
	return wlan.Config{
		BinSeconds:         300, // the paper's five-minute sub-periods
		SelectorFor:        selectorFor,
		DemandFor:          func(s trace.Session) float64 { return d.Demands.Demand(s.User) },
		BatchWindowSeconds: d.BatchWindowSeconds, // co-arrivals for Algorithm 1
		// Controllers learn AP traffic from periodic reports; during an
		// arrival burst every policy that ranks on measured load sees the
		// same stale snapshot (the classic herd effect). Association
		// state stays live.
		LoadReportIntervalSeconds: d.ReportIntervalSeconds,
	}
}

// RunS3 trains a sociality model with the given parameters and simulates
// the test trace under the S³ policy.
func (d *Data) RunS3(societyCfg society.Config, selCfg core.SelectorConfig) (*wlan.Result, error) {
	model, err := d.trainModel(societyCfg)
	if err != nil {
		return nil, err
	}
	return d.RunS3Model(model, selCfg)
}

// trainModel is RunS3's training half. α weighs the type prior when θ is
// read (θ = P(L|E) + α·T) and plays no part in what Train counts, so a
// sweep trains once per distinct set of the other parameters and hands
// every α cell a Model.WithAlpha copy; all of them train through d's one
// Trainer, which clusters once per clustering parameters. The models are
// locals of the figure that trained them: nothing is kept on d.
func (d *Data) trainModel(cfg society.Config) (*society.Model, error) {
	trainer := d.trainer
	if !trainer.Of(d.Train, d.Profiles) { // a Data built by hand, or Train or Profiles replaced
		trainer = society.NewTrainer(d.Train, d.Profiles)
	}
	model, err := trainer.Train(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: train sociality: %w", err)
	}
	return model, nil
}

// RunS3Model simulates the test trace under the S³ policy reading an
// already trained model. The simulation only reads the model, so cells
// of one sweep may share it (and its WithAlpha copies) concurrently.
func (d *Data) RunS3Model(model *society.Model, selCfg core.SelectorConfig) (*wlan.Result, error) {
	sel, err := core.NewSelector(model, selCfg)
	if err != nil {
		return nil, err
	}
	return wlan.Simulate(d.Test, d.simConfig(
		func(trace.ControllerID, []trace.AP) wlan.Selector { return sel }))
}

// RunLLF simulates the test trace under the LLF baseline.
func (d *Data) RunLLF() (*wlan.Result, error) {
	return d.RunSelector(llf)
}

func llf(trace.ControllerID, []trace.AP) wlan.Selector { return baseline.LLF{} }

// RunS3AndLLF runs both policies concurrently on the experiment pool and
// returns their results in fixed (S³, LLF) order.
func (d *Data) RunS3AndLLF(societyCfg society.Config, selCfg core.SelectorConfig, label string) (*wlan.Result, *wlan.Result, error) {
	results, err := runner.Map(d.runnerConfig(label), []string{"S3", "LLF"},
		func(policy string) (*wlan.Result, error) {
			if policy == "S3" {
				return d.RunS3(societyCfg, selCfg)
			}
			return d.RunLLF()
		})
	if err != nil {
		return nil, nil, err
	}
	return results[0], results[1], nil
}

// RunSelector simulates the test trace under an arbitrary policy factory.
func (d *Data) RunSelector(factory func(trace.ControllerID, []trace.AP) wlan.Selector) (*wlan.Result, error) {
	return wlan.Simulate(d.Test, d.simConfig(factory))
}

// MeanBalance returns the mean normalized balance index over all active
// bins of all controller domains of a simulation result.
func MeanBalance(res *wlan.Result) (float64, error) {
	means, err := meanMetrics(res, metrics.NormalizedBalanceIndex)
	if err != nil {
		return 0, err
	}
	return means[0], nil
}

// meanMetrics evaluates per-bin load metrics over all active bins of all
// domains, in one pass over the result's bins, and returns each one's mean.
func meanMetrics(res *wlan.Result, evals ...func([]float64) (float64, error)) ([]float64, error) {
	ws := make([]stats.Welford, len(evals))
	err := res.EachBin(func(_ trace.ControllerID, _ int, loads []float64) error {
		if !metrics.Active(loads) {
			return nil
		}
		for i, eval := range evals {
			v, err := eval(loads)
			if err != nil {
				return err
			}
			ws[i].Add(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(ws))
	for i := range ws {
		if ws[i].N() == 0 {
			return nil, errors.New("experiments: no active bins")
		}
		means[i] = ws[i].Mean()
	}
	return means, nil
}

// LeavePeakHours are the paper's departure-peak hours (12:00–13:00,
// 16:00–17:50, 21:00–22:00), when S³'s resilience to co-leaving shows
// most.
var LeavePeakHours = map[int]bool{12: true, 16: true, 17: true, 21: true}

// runnerConfig builds the pool configuration for one named sweep or
// ablation over this dataset.
func (d *Data) runnerConfig(label string) runner.Config {
	return runner.Config{Workers: d.Workers, Progress: d.Progress, Label: label}
}

// cell is one replay of a sweep or ablation: d's test trace under the
// policy factory when it is set, else under S³ reading model with sel.
// A factory runs once per domain, so stateful baselines keep their state
// per domain and per cell.
type cell struct {
	d      *Data
	model  *society.Model
	sel    core.SelectorConfig
	policy func(trace.ControllerID, []trace.AP) wlan.Selector
}

// meanBalances replays the cells on d's experiment pool and returns each
// one's MeanBalance in cell order, identical for any worker count.
func (d *Data) meanBalances(label string, cells []cell) ([]float64, error) {
	return runner.Map(d.runnerConfig(label), cells, func(c cell) (float64, error) {
		var sim *wlan.Result
		var err error
		if c.policy != nil {
			sim, err = c.d.RunSelector(c.policy)
		} else {
			sim, err = c.d.RunS3Model(c.model, c.sel)
		}
		if err != nil {
			return 0, err
		}
		return MeanBalance(sim)
	})
}
