package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/analysis"
	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/runner"
	"github.com/s3wlan/s3wlan/internal/synth"
)

// runAnalyze reproduces the paper's measurement study (Section III) on a
// trace: Figs. 2–8 and Table I. With -all the independent figures fan
// out over a worker pool; each renders into its own buffer and the
// buffers print in figure order, so parallel output is byte-identical to
// a serial run:
//
//	s3 analyze -trace campus.jsonl -all
//	s3 analyze -generate -fig 7
//	s3 analyze -generate -all -workers 8 -progress -obs obs.json
func runAnalyze(args []string, out io.Writer) (err error) {
	fs := newFlagSet("analyze")
	var (
		in     = newInput(fs)
		fig    = fs.Int("fig", 0, "figure to reproduce (2-8); 0 with -all")
		table  = fs.Int("table", 0, "table to reproduce (1)")
		all    = fs.Bool("all", false, "run every analysis")
		csvDir = fs.String("csvdir", "", "also write each figure as CSV into this directory")
		fan    = newFanoutFlags(fs)
		rt     = newRuntimeFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case !*all && *fig == 0 && *table == 0:
		return errors.New("nothing to do: pass -all, -fig N or -table 1")
	case *fig != 0 && (*fig < 2 || *fig > 8):
		return fmt.Errorf("-fig %d: want 2 to 8", *fig)
	case *table != 0 && *table != 1:
		return fmt.Errorf("-table %d: want 1", *table)
	}
	stop, err := rt.start(out)
	if err != nil {
		return err
	}
	defer stop(&err)

	tr, err := in.load(synth.DefaultConfig())
	if err != nil {
		return err
	}
	profiles := apps.BuildProfiles(tr.Flows, in.epoch, apps.NewClassifier())

	var jobs []func(w io.Writer) error
	addFig := func(n int, compute func() (result, error)) {
		if *all || *fig == n {
			jobs = append(jobs, func(w io.Writer) error {
				res, err := compute()
				return show(w, *csvDir, fmt.Sprintf("fig %d", n), res, err)
			})
		}
	}
	addFig(2, func() (result, error) { return analysis.Fig2(tr, in.epoch) })
	addFig(3, func() (result, error) { return analysis.Fig3(tr, nil) })
	addFig(4, func() (result, error) { return analysis.Fig4(tr, in.epoch, 1, 600) })
	addFig(5, func() (result, error) { return analysis.Fig5(tr, nil) })
	addFig(6, func() (result, error) { return analysis.Fig6(profiles, 30) })
	addFig(7, func() (result, error) { return analysis.Fig7(profiles, 10, in.seed) })
	// Table I consumes the Fig 8 clustering, so the two stay one job.
	if *all || *fig == 8 || *table == 1 {
		jobs = append(jobs, func(w io.Writer) error {
			fig8, err := analysis.Fig8(profiles, 4, in.seed)
			if err != nil {
				return fmt.Errorf("fig 8: %w", err)
			}
			if *all || *fig == 8 {
				if err := show(w, *csvDir, "fig 8", fig8, nil); err != nil {
					return err
				}
			}
			if *all || *table == 1 {
				res, err := analysis.Table1(tr, fig8, 300, 600)
				return show(w, *csvDir, "table 1", res, err)
			}
			return nil
		})
	}

	outputs, err := runner.Map(fan.config("analyze"), jobs,
		func(job func(io.Writer) error) ([]byte, error) {
			var buf bytes.Buffer
			err := job(&buf)
			return buf.Bytes(), err
		})
	if err != nil {
		return err
	}
	for _, b := range outputs {
		if _, err := out.Write(b); err != nil {
			return err
		}
	}
	return nil
}
