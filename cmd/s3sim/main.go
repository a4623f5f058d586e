// Command s3sim runs the paper's evaluation (Section V): trace-driven
// simulation of S³ against LLF, reproducing Figs. 10–12, plus the
// repository's ablation studies. Sweeps and ablation grids fan out over
// a deterministic worker pool (-workers); profiling and observability
// flags expose where the time goes.
//
// Usage:
//
//	s3sim -generate -fig 12
//	s3sim -trace campus.jsonl -train 28 -all
//	s3sim -generate -ablation staleness -workers 8 -progress
//	s3sim -generate -all -cpuprofile cpu.prof -obs obs.json
//	s3sim -generate -all -flight-dir flight/   # ring for s3diag post-mortems
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/obs/flight"
	"github.com/s3wlan/s3wlan/internal/runner"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "s3sim:", err)
		os.Exit(1)
	}
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
	fs := flag.NewFlagSet("s3sim", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "input trace (JSON-lines); empty with -generate")
		generate  = fs.Bool("generate", false, "generate the default synthetic campus")
		seed      = fs.Int64("seed", 1, "seed for -generate")
		users     = fs.Int("users", 600, "population for -generate")
		buildings = fs.Int("buildings", 10, "buildings for -generate")
		aps       = fs.Int("aps", 4, "APs per building for -generate")
		days      = fs.Int("days", 31, "days for -generate")
		trainDays = fs.Int("train", 28, "training days (rest is the test range)")
		fig       = fs.Int("fig", 0, "figure to reproduce (10, 11 or 12)")
		all       = fs.Bool("all", false, "run every evaluation figure")
		ablation  = fs.String("ablation", "", "ablation to run: baselines, staleness, guard, batch, metrics, temporal or all")
		csvDir    = fs.String("csvdir", "", "also write each result as CSV into this directory")
		replicate = fs.Int("replicate", 0, "replicate Fig 12 over N seeds (robustness)")

		workers    = fs.Int("workers", 0, "parallel sweep/ablation workers (0 = GOMAXPROCS; 1 = serial)")
		progress   = fs.Bool("progress", false, "report per-cell progress to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060)")
		obsPath    = fs.String("obs", "", `write observability counters/timers as JSON to this file ("-" = stdout)`)

		flightDir   = fs.String("flight-dir", "", "flight-recorder ring directory (empty = off); decode with s3diag")
		flightEvery = fs.Duration("flight-every", time.Second, "flight recorder sampling period")
		flightMax   = fs.Int64("flight-max-bytes", flight.DefaultMaxBytes, "flight ring disk budget in bytes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *fig == 0 && *ablation == "" && *replicate == 0 {
		return errors.New("nothing to do: pass -all, -fig N, -ablation <name> or -replicate N")
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
	if *flightDir != "" {
		rec, ferr := flight.Start(flight.Options{
			Dir:      *flightDir,
			Every:    *flightEvery,
			MaxBytes: *flightMax,
		})
		if ferr != nil {
			return ferr
		}
		defer func() {
			if serr := rec.Stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}

	cfg := synth.DefaultConfig()
	cfg.Seed = *seed
	cfg.Users = *users
	cfg.Buildings = *buildings
	cfg.APsPerBuilding = *aps
	cfg.Days = *days

	var data *experiments.Data
	switch {
	case *generate:
		data, err = experiments.Prepare(cfg, *trainDays)
	case *tracePath != "":
		var tr *trace.Trace
		tr, err = trace.LoadFile(*tracePath)
		if err == nil {
			data, err = experiments.PrepareTrace(tr, cfg, *trainDays)
		}
	default:
		return errors.New("pass -trace <file> or -generate")
	}
	if err != nil {
		return err
	}
	data.Workers = *workers
	data.Progress = progressW
	fmt.Fprintf(out, "prepared: %d training sessions, %d test sessions\n\n",
		len(data.Train.Sessions), len(data.Test.Sessions))

	runFig := func(n int) bool { return *all || *fig == n }

	writeCSV := func(name string, result interface{ WriteCSV(io.Writer) error }) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return result.WriteCSV(f)
	}

	if runFig(10) {
		res, err := experiments.Fig10(data, nil, nil)
		if err != nil {
			return fmt.Errorf("fig 10: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		if err := writeCSV("fig10", res); err != nil {
			return fmt.Errorf("fig 10 csv: %w", err)
		}
	}
	if runFig(11) {
		res, err := experiments.Fig11(data, nil, nil)
		if err != nil {
			return fmt.Errorf("fig 11: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		if err := writeCSV("fig11", res); err != nil {
			return fmt.Errorf("fig 11 csv: %w", err)
		}
	}
	if runFig(12) {
		res, err := experiments.Fig12(data)
		if err != nil {
			return fmt.Errorf("fig 12: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		if err := writeCSV("fig12", res); err != nil {
			return fmt.Errorf("fig 12 csv: %w", err)
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, "fig12_series.csv"))
			if err != nil {
				return err
			}
			err = res.WriteSeriesCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("fig 12 series csv: %w", err)
			}
		}
	}

	if *replicate > 0 {
		seeds := make([]int64, *replicate)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		rcfg := runner.Config{Workers: *workers, Progress: progressW, Seed: *seed}
		res, err := experiments.ReplicateFig12(cfg, *trainDays, seeds, rcfg)
		if err != nil {
			return fmt.Errorf("replicate: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}

	return runAblations(data, *ablation, out)
}

func runAblations(data *experiments.Data, which string, out io.Writer) error {
	want := func(name string) bool { return which == name || which == "all" }
	if which == "" {
		return nil
	}
	ran := false
	if want("baselines") {
		res, err := experiments.AblationBaselines(data)
		if err != nil {
			return fmt.Errorf("ablation baselines: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if want("staleness") {
		res, err := experiments.AblationStaleness(data, nil)
		if err != nil {
			return fmt.Errorf("ablation staleness: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if want("guard") {
		res, err := experiments.AblationGuard(data, nil)
		if err != nil {
			return fmt.Errorf("ablation guard: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if want("metrics") {
		res, err := experiments.MetricPanel(data)
		if err != nil {
			return fmt.Errorf("ablation metrics: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if want("temporal") {
		res, err := experiments.AblationTemporal(data, nil)
		if err != nil {
			return fmt.Errorf("ablation temporal: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if want("batch") {
		res, err := experiments.AblationBatchWindow(data, nil)
		if err != nil {
			return fmt.Errorf("ablation batch: %w", err)
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown ablation %q (want baselines, staleness, guard, batch, metrics, temporal or all)", which)
	}
	return nil
}
