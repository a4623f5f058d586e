// Command s3model trains, persists and inspects sociality models — the
// operator-facing lifecycle around the learning pipeline.
//
// Usage:
//
//	s3model -train -trace campus.jsonl -out model.json      # batch train
//	s3model -train -generate -out model.json                # from synthetic campus
//	s3model -inspect model.json                             # structure report
//	s3model -train -generate -cpuprofile cpu.prof -obs -    # profile training
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/s3wlan/s3wlan/internal/analysis"
	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "s3model:", err)
		os.Exit(1)
	}
}

// writeDOT renders the model's θ-graph to a Graphviz file.
func writeDOT(path string, model *society.Model, threshold float64) (err error) {
	g := socialgraph.New()
	model.EachPair(func(p society.PairStat) {
		if p.Supported && model.Index(p.A, p.B) > threshold {
			g.AddEdge(p.A, p.B, model.Index(p.A, p.B))
		}
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return g.WriteDOT(f, "s3")
}

// writeObs dumps the process's observability registry as JSON to path
// ("-" writes to w, the command's stdout).
func writeObs(path string, w io.Writer) error {
	if path == "-" {
		return obs.WriteJSON(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("s3model", flag.ContinueOnError)
	var (
		train     = fs.Bool("train", false, "train a model")
		inspect   = fs.String("inspect", "", "inspect a saved model")
		tracePath = fs.String("trace", "", "training trace (JSON-lines)")
		generate  = fs.Bool("generate", false, "train on the default synthetic campus")
		outPath   = fs.String("out", "model.json", "output model path for -train")
		seed      = fs.Int64("seed", 1, "seed for -generate and clustering")
		epoch     = fs.Int64("epoch", 0, "trace epoch (Unix seconds of day 0)")
		window    = fs.Int64("window", 300, "co-leave extraction window, seconds")
		alpha     = fs.Float64("alpha", 0.3, "type-prior coefficient α")
		history   = fs.Int("history", 15, "training history in days (0 = all)")
		threshold = fs.Float64("threshold", 0.3, "close-relationship θ cut for -inspect")
		dotPath   = fs.String("dot", "", "also write the θ-graph as Graphviz DOT (with -inspect)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		obsPath    = fs.String("obs", "", `write observability counters/timers as JSON to this file ("-" = stdout)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiling, err := obs.StartProfiling(obs.ProfileConfig{
		CPUFile: *cpuprofile, MemFile: *memprofile, HTTPAddr: *pprofAddr,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiling(); perr != nil && err == nil {
			err = perr
		}
		if *obsPath != "" {
			if oerr := writeObs(*obsPath, out); oerr != nil && err == nil {
				err = oerr
			}
		}
	}()

	switch {
	case *train:
		var tr *trace.Trace
		var err error
		switch {
		case *generate:
			cfg := synth.DefaultConfig()
			cfg.Seed = *seed
			tr, _, err = synth.Generate(cfg)
		case *tracePath != "":
			tr, err = trace.LoadFile(*tracePath)
		default:
			return errors.New("pass -trace <file> or -generate")
		}
		if err != nil {
			return err
		}
		profiles := apps.BuildProfiles(tr.Flows, *epoch, apps.NewClassifier())
		cfg := society.DefaultConfig()
		cfg.CoLeaveWindowSeconds = *window
		cfg.Alpha = *alpha
		cfg.HistoryDays = *history
		cfg.Seed = *seed
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

	case *inspect != "":
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
			if err := writeDOT(*dotPath, model, *threshold); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *dotPath)
		}
		return nil

	default:
		return errors.New("nothing to do: pass -train or -inspect <model>")
	}
}
