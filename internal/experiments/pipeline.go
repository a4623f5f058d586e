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
	// Workers bounds the concurrent sweep/ablation cells run on the
	// experiment pool (internal/runner); <= 0 means GOMAXPROCS. Every
	// cell owns its state, so parallel results are byte-identical to a
	// serial run.
	Workers int
	// Progress, when non-nil, receives one line per completed cell
	// (typically os.Stderr behind the CLIs' -progress flag).
	Progress io.Writer

	trainer *society.Trainer
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
		Campus:    campus,
		Full:      full,
		Train:     train,
		Test:      test,
		Profiles:  profiles,
		Demands:   demands,
		TrainDays: trainDays,
		trainer:   society.NewTrainer(train, profiles),
	}, nil
}

// trainModel trains a sociality model on d's training split. α weighs
// the type prior when θ is read (θ = P(L|E) + α·T) and plays no part in
// what Train counts, so a sweep trains once per distinct set of the other
// parameters and hands every α cell a Model.WithAlpha copy; all of them
// train through d's one Trainer, which clusters once per clustering
// parameters. The models are locals of the figure that trained them:
// nothing is kept on d.
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

// leavePeakHours are the paper's departure-peak hours (12:00–13:00,
// 16:00–17:50, 21:00–22:00), when S³'s resilience to co-leaving shows
// most.
var leavePeakHours = map[int]bool{12: true, 16: true, 17: true, 21: true}

// runnerConfig builds the pool configuration for one named sweep or
// ablation over this dataset.
func (d *Data) runnerConfig(label string) runner.Config {
	return runner.Config{Workers: d.Workers, Progress: d.Progress, Label: label}
}

// cell is one replay of d's test trace: under the policy factory when it
// is set, else under S³ reading model with sel. A factory runs once per
// domain, so stateful baselines keep their state per domain and per cell.
// The controller hears AP load every reportEvery seconds (0 is live load)
// and Algorithm 1 places the co-arrivals of each batchWindow seconds
// together; baselineCell sets the paper's protocol.
type cell struct {
	model       *society.Model
	sel         core.SelectorConfig
	policy      func(trace.ControllerID, []trace.AP) wlan.Selector
	reportEvery int64
	batchWindow int64
}

// baselineCell replays a policy factory under the paper's protocol:
// controllers learn AP traffic from reports every five minutes, and
// co-arrivals within a minute are placed jointly.
func baselineCell(policy func(trace.ControllerID, []trace.AP) wlan.Selector) cell {
	return cell{policy: policy, reportEvery: 300, batchWindow: 60}
}

// s3Cell replays S³ reading model with sel under the paper's protocol.
// The replay only reads the model, so cells may share it (and its
// WithAlpha copies) concurrently.
func s3Cell(model *society.Model, sel core.SelectorConfig) cell {
	c := baselineCell(nil)
	c.model, c.sel = model, sel
	return c
}

func llf(trace.ControllerID, []trace.AP) wlan.Selector { return baseline.LLF{} }

// replay replays the cells on d's experiment pool and returns their
// results in cell order, identical for any worker count.
func (d *Data) replay(label string, cells []cell) ([]*wlan.Result, error) {
	return runner.Map(d.runnerConfig(label), cells, func(c cell) (*wlan.Result, error) {
		policy := c.policy
		if policy == nil {
			sel, err := core.NewSelector(c.model, c.sel)
			if err != nil {
				return nil, err
			}
			policy = func(trace.ControllerID, []trace.AP) wlan.Selector { return sel }
		}
		return wlan.Simulate(d.Test, wlan.Config{
			BinSeconds:  300, // the paper's five-minute sub-periods
			SelectorFor: policy,
			// Demands come from the history-based estimator (the
			// controller's belief), accounting from the sessions.
			DemandFor:          func(s trace.Session) float64 { return d.Demands.Demand(s.User) },
			BatchWindowSeconds: c.batchWindow,
			// During an arrival burst every policy that ranks on reported
			// load sees the same stale snapshot (the classic herd
			// effect). Association state stays live.
			LoadReportIntervalSeconds: c.reportEvery,
		})
	})
}

// meanBalances replays the cells and returns each one's MeanBalance in
// cell order.
func (d *Data) meanBalances(label string, cells []cell) ([]float64, error) {
	results, err := d.replay(label, cells)
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(results))
	for i, res := range results {
		if means[i], err = MeanBalance(res); err != nil {
			return nil, err
		}
	}
	return means, nil
}
