// Command s3 is the S³ reproduction's one binary: the measurement study
// (Section III), learning θ, the trace-driven evaluation (Section V) and
// the TCP prototype, as subcommands.
//
// Usage:
//
//	s3 gen -out campus.jsonl [-preset office]   # synthetic campus trace
//	s3 trace -in campus.jsonl -summary          # trace utilities
//	s3 analyze -generate -all                   # Figs 2–8, Table I
//	s3 model -train -generate -out model.json   # train / -inspect a model
//	s3 sim -generate -all                       # Figs 10–12, -ablation, -replicate
//	s3 proto -demo                              # the live controller
//	s3 diag -dir flight/ -check                 # decode a flight ring or -journal
//
// analyze, model, sim and proto share one runtime flag set: -cpuprofile,
// -memprofile, -pprof (net/http/pprof and Prometheus /metrics), -obs
// (the metric registry as JSON at exit) and the flight recorder
// (-flight-dir, -flight-every, -flight-max-bytes; decode with s3 diag).
// analyze, model and sim read their input from -trace <file>, refused
// unless every record is valid, or -generate (+ -seed); -epoch is its
// day 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/obs/flight"
	"github.com/s3wlan/s3wlan/internal/runner"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

var subcommands = map[string]func(args []string, out io.Writer) error{
	"gen":     runGen,
	"trace":   runTrace,
	"analyze": runAnalyze,
	"model":   runModel,
	"sim":     runSim,
	"proto":   runProto,
	"diag":    runDiag,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "s3:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			return sub(args[1:], out)
		}
	}
	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Errorf("usage: s3 <subcommand> [flags], subcommand one of: %s", strings.Join(names, ", "))
}

func newFlagSet(sub string) *flag.FlagSet {
	return flag.NewFlagSet("s3 "+sub, flag.ContinueOnError)
}

// runtimeFlags are the profiling and observability flags of analyze,
// model, sim and proto.
type runtimeFlags struct {
	cpuprofile, memprofile, pprof, obs, flightDir string
	flightEvery                                   time.Duration
	flightMax                                     int64
}

func newRuntimeFlags(fs *flag.FlagSet) *runtimeFlags {
	r := &runtimeFlags{}
	fs.StringVar(&r.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&r.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&r.pprof, "pprof", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060)")
	fs.StringVar(&r.obs, "obs", "", `write observability metrics as JSON to this file at exit ("-" = stdout)`)
	fs.StringVar(&r.flightDir, "flight-dir", "", "flight-recorder ring directory (empty = off); decode with s3 diag")
	fs.DurationVar(&r.flightEvery, "flight-every", time.Second, "flight recorder sampling period")
	fs.Int64Var(&r.flightMax, "flight-max-bytes", flight.DefaultMaxBytes, "flight ring disk budget in bytes")
	return r
}

// start starts profiling and the flight recorder. The caller defers
// stop(&err): it stops the recorder, finishes the profiles and writes
// -obs (to out for "-"), keeping the first error.
func (r *runtimeFlags) start(out io.Writer) (stop func(*error), err error) {
	stopProfiling, err := obs.StartProfiling(obs.ProfileConfig{
		CPUFile: r.cpuprofile, MemFile: r.memprofile, HTTPAddr: r.pprof,
	})
	if err != nil {
		return nil, err
	}
	var rec *flight.Recorder
	if r.flightDir != "" {
		rec, err = flight.Start(flight.Options{Dir: r.flightDir, Every: r.flightEvery, MaxBytes: r.flightMax})
		if err != nil {
			_ = stopProfiling() // the recorder's error is the one to report
			return nil, err
		}
	}
	return func(errp *error) {
		keep := func(err error) {
			if err != nil && *errp == nil {
				*errp = err
			}
		}
		if rec != nil {
			keep(rec.Stop())
		}
		keep(stopProfiling())
		switch r.obs {
		case "":
		case "-":
			keep(obs.WriteJSON(out))
		default:
			keep(writeFile(r.obs, obs.WriteJSON))
		}
	}, nil
}

// fanoutFlags are the worker-pool flags of analyze and sim, whose
// parallel output is byte-identical to a serial run.
type fanoutFlags struct {
	workers  int
	progress bool
}

func newFanoutFlags(fs *flag.FlagSet) *fanoutFlags {
	f := &fanoutFlags{}
	fs.IntVar(&f.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS; 1 = serial)")
	fs.BoolVar(&f.progress, "progress", false, "report per-task progress to stderr")
	return f
}

func (f *fanoutFlags) config(label string) runner.Config {
	cfg := runner.Config{Workers: f.workers, Label: label}
	if f.progress {
		cfg.Progress = os.Stderr
	}
	return cfg
}

// input is the trace analyze, model and sim read: -trace <file>, or a
// campus generated with -generate; -epoch is its day 0 either way.
type input struct {
	path     string
	generate bool
	seed     int64
	epoch    int64
}

func newInput(fs *flag.FlagSet) *input {
	in := &input{}
	fs.StringVar(&in.path, "trace", "", "input trace (JSON-lines); empty with -generate")
	fs.BoolVar(&in.generate, "generate", false, "generate a synthetic campus instead of reading a trace")
	fs.Int64Var(&in.seed, "seed", 1, "seed for -generate, clustering and replicates")
	fs.Int64Var(&in.epoch, "epoch", 0, "trace epoch (Unix seconds of day 0); with -generate, the campus's")
	return in
}

// load generates campus, with its Seed and Epoch set to -seed and
// -epoch, under -generate; otherwise it reads -trace, which validates.
func (in *input) load(campus synth.Config) (*trace.Trace, error) {
	switch {
	case in.generate:
		campus.Seed, campus.Epoch = in.seed, in.epoch
		tr, _, err := synth.Generate(campus)
		return tr, err
	case in.path != "":
		return trace.LoadFile(in.path)
	}
	return nil, errors.New("pass -trace <file> or -generate")
}

// campusFlags declares the campus sizes of gen and sim. The returned
// function applies the ones set on the command line to a base config.
func campusFlags(fs *flag.FlagSet) func(cfg *synth.Config) {
	def := synth.DefaultConfig()
	users := fs.Int("users", def.Users, "campus population")
	buildings := fs.Int("buildings", def.Buildings, "campus buildings (one controller each)")
	aps := fs.Int("aps", def.APsPerBuilding, "APs per building")
	days := fs.Int("days", def.Days, "campus length in days")
	return func(cfg *synth.Config) {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "users":
				cfg.Users = *users
			case "buildings":
				cfg.Buildings = *buildings
			case "aps":
				cfg.APsPerBuilding = *aps
			case "days":
				cfg.Days = *days
			}
		})
	}
}

// writeFile creates path and hands it to write, returning the first
// error of the create, the write and the Close.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// result is an analysis or evaluation figure.
type result interface {
	Render() string
	WriteCSV(io.Writer) error
}

// show prints a figure computed as (res, err) and, with a -csvdir, writes
// it there as <label without spaces>.csv; errors name the label.
func show(out io.Writer, csvDir, label string, res result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	fmt.Fprintln(out, res.Render())
	if err := writeCSV(csvDir, strings.ReplaceAll(label, " ", ""), res.WriteCSV); err != nil {
		return fmt.Errorf("%s csv: %w", label, err)
	}
	return nil
}

// writeCSV writes dir/name.csv, creating dir; an empty dir writes nothing.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, name+".csv"), write)
}
