package main

import (
	"errors"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// runSim runs the paper's evaluation (Section V): trace-driven simulation
// of S³ against LLF, reproducing Figs. 10–12, plus the repository's
// ablation studies. Sweeps and ablation grids fan out over a
// deterministic worker pool:
//
//	s3 sim -generate -fig 12
//	s3 sim -trace campus.jsonl -train 28 -all
//	s3 sim -generate -ablation staleness -workers 8 -progress
//	s3 sim -generate -replicate 5
//	s3 sim -generate -all -cpuprofile cpu.prof -obs obs.json -flight-dir flight/
func runSim(args []string, out io.Writer) (err error) {
	fs := newFlagSet("sim")
	var (
		in        = newInput(fs)
		sizes     = campusFlags(fs)
		trainDays = fs.Int("train", 28, "training days (rest is the test range)")
		fig       = fs.Int("fig", 0, "figure to reproduce (10, 11 or 12)")
		all       = fs.Bool("all", false, "run every evaluation figure")
		ablation  = fs.String("ablation", "", "ablation to run: baselines, staleness, guard, batch, metrics or all")
		csvDir    = fs.String("csvdir", "", "also write each figure as CSV into this directory")
		replicate = fs.Int("replicate", 0, "replicate Fig 12 over N seeds (robustness)")
		fan       = newFanoutFlags(fs)
		rt        = newRuntimeFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case !*all && *fig == 0 && *ablation == "" && *replicate == 0:
		return errors.New("nothing to do: pass -all, -fig N, -ablation <name> or -replicate N")
	case *fig != 0 && (*fig < 10 || *fig > 12):
		return fmt.Errorf("-fig %d: want 10, 11 or 12", *fig)
	case *replicate < 0:
		return fmt.Errorf("-replicate %d: want a number of seeds", *replicate)
	case *replicate > 0 && !in.generate:
		return errors.New("-replicate generates a campus per seed: pass -generate, not -trace")
	}
	stop, err := rt.start(out)
	if err != nil {
		return err
	}
	defer stop(&err)

	cfg := synth.DefaultConfig()
	sizes(&cfg)
	cfg.Seed, cfg.Epoch = in.seed, in.epoch
	var data *experiments.Data
	if in.generate {
		data, err = experiments.Prepare(cfg, *trainDays) // holds no flow list
	} else {
		var tr *trace.Trace
		if tr, err = in.load(cfg); err != nil {
			return err
		}
		if data, err = experiments.PrepareTrace(tr, cfg, *trainDays); err != nil {
			err = fmt.Errorf("split %s at -epoch %d + -train %d days: %w", in.path, in.epoch, *trainDays, err)
		}
	}
	if err != nil {
		return err
	}
	rcfg := fan.config("")
	data.Workers, data.Progress = rcfg.Workers, rcfg.Progress
	fmt.Fprintf(out, "prepared: %d training sessions, %d test sessions\n\n",
		len(data.Train.Sessions), len(data.Test.Sessions))

	if *all || *fig == 10 {
		res, err := experiments.Fig10(data, nil, nil)
		if err := show(out, *csvDir, "fig 10", res, err); err != nil {
			return err
		}
	}
	if *all || *fig == 11 {
		res, err := experiments.Fig11(data, nil, nil)
		if err := show(out, *csvDir, "fig 11", res, err); err != nil {
			return err
		}
	}
	if *all || *fig == 12 {
		res, err := experiments.Fig12(data)
		if err := show(out, *csvDir, "fig 12", res, err); err != nil {
			return err
		}
		if err := writeCSV(*csvDir, "fig12_series", res.WriteSeriesCSV); err != nil {
			return fmt.Errorf("fig 12 series csv: %w", err)
		}
	}

	if *replicate > 0 {
		seeds := make([]int64, *replicate)
		for i := range seeds {
			seeds[i] = in.seed + int64(i)
		}
		res, err := experiments.ReplicateFig12(cfg, *trainDays, seeds, rcfg)
		if err != nil {
			return fmt.Errorf("replicate: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}

	return runAblations(data, *ablation, out)
}

// runAblations runs the named ablation, or every one for "all", in a
// fixed order.
func runAblations(data *experiments.Data, which string, out io.Writer) error {
	if which == "" {
		return nil
	}
	type rendered interface{ Render() string }
	ran := false
	for _, a := range []struct {
		name string
		run  func() (rendered, error)
	}{
		{"baselines", func() (rendered, error) { return experiments.AblationBaselines(data) }},
		{"staleness", func() (rendered, error) { return experiments.AblationStaleness(data, nil) }},
		{"guard", func() (rendered, error) { return experiments.AblationGuard(data, nil) }},
		{"metrics", func() (rendered, error) { return experiments.MetricPanel(data) }},
		{"batch", func() (rendered, error) { return experiments.AblationBatchWindow(data, nil) }},
	} {
		if which != a.name && which != "all" {
			continue
		}
		res, err := a.run()
		if err != nil {
			return fmt.Errorf("ablation %s: %w", a.name, err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown ablation %q (want baselines, staleness, guard, batch, metrics or all)", which)
	}
	return nil
}
