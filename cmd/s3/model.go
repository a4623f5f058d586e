package main

import (
	"errors"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/analysis"
	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
)

// runModel trains, persists and inspects sociality models — the
// operator-facing lifecycle around the learning pipeline:
//
//	s3 model -train -trace campus.jsonl -out model.json
//	s3 model -train -generate -out model.json -cpuprofile cpu.prof -obs -
//	s3 model -inspect model.json -dot social.dot
func runModel(args []string, out io.Writer) (err error) {
	fs := newFlagSet("model")
	var (
		train     = fs.Bool("train", false, "train a model")
		inspect   = fs.String("inspect", "", "inspect a saved model")
		in        = newInput(fs)
		outPath   = fs.String("out", "model.json", "output model path for -train")
		window    = fs.Int64("window", 300, "co-leave extraction window, seconds")
		alpha     = fs.Float64("alpha", 0.3, "type-prior coefficient α")
		history   = fs.Int("history", 15, "training history in days (0 = all)")
		threshold = fs.Float64("threshold", 0.3, "close-relationship θ cut for -inspect")
		dotPath   = fs.String("dot", "", "also write the θ-graph as Graphviz DOT (with -inspect)")
		rt        = newRuntimeFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*train && *inspect == "" {
		return errors.New("nothing to do: pass -train or -inspect <model>")
	}
	stop, err := rt.start(out)
	if err != nil {
		return err
	}
	defer stop(&err)

	if *train {
		tr, err := in.load(synth.DefaultConfig())
		if err != nil {
			return err
		}
		profiles := apps.BuildProfiles(tr.Flows, in.epoch, apps.NewClassifier())
		cfg := society.DefaultConfig()
		cfg.CoLeaveWindowSeconds = *window
		cfg.Alpha = *alpha
		cfg.HistoryDays = *history
		cfg.Seed = in.seed
		model, err := society.Train(tr, profiles, cfg)
		if err != nil {
			return err
		}
		if err := society.SaveModel(*outPath, model); err != nil {
			return err
		}
		fmt.Fprintf(out, "trained on %d sessions: %d pair relationships, %d usage types\n",
			len(tr.Sessions), model.NumPairs(), model.K())
		fmt.Fprintf(out, "wrote %s\n", *outPath)
		return nil
	}

	model, err := society.LoadModel(*inspect)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %d pair relationships, %d usage types, α=%.2f\n",
		model.NumPairs(), model.K(), model.Alpha)
	report, err := analysis.BuildSocialReport(model, *threshold)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, report.Render())
	if *dotPath != "" {
		if err := writeFile(*dotPath, report.WriteDOT); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *dotPath)
	}
	return nil
}
