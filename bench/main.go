// Command bench is the repository's one benchmark: it runs a named
// workload as a pure function of its seed, checks the outputs, and
// prints every metric by name with its unit. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times a run sets its workload up; setup_s is the
// median. The last world built is the one the timed phase uses.
const setups = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or \"all\"")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 12, "run length the fixed op counts are scaled to (BENCHMARK.json's run_seconds)")
		traced  = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		spans   = fs.String("spans", "", "traced run: write every span to this file as JSON")
		aa      = fs.Int("aa", 0, "A/A mode: two alternating sets of K runs of the workload (default: of every workload)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One P, one CPU: with one request in flight a second P adds nothing
	// but a cross-thread wake-up per message, and whether a request's
	// chain of goroutines stays on one P or ping-pongs is decided per
	// process (relay3's p50 was 52 us or 65 us, same seed, same binary).
	runtime.GOMAXPROCS(1)
	pinToOneCPU()
	var todo []workload
	if *name == "all" || (*name == "" && *aa > 0) {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-12s %s\n", w.name, w.why)
		}
		return 2
	}
	if *aa > 0 {
		return runAA(todo, *aa, *seed, *seconds, stdout, stderr)
	}
	code := 0
	for _, w := range todo {
		rep, err := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, traced: *traced != 0, spans: *spans})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rep.writeText(stdout)
		if err := rep.writeJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !rep.correct {
			code = 1
		}
	}
	return code
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	tiny    bool
	spans   string
}

// runWorkload performs one run: host calibration, set-ups, the timed
// phase, the output checks, and (traced) the layer probes.
func runWorkload(w workload, cfg runConfig) (*report, error) {
	sc, err := newScratch()
	if err != nil {
		return nil, err
	}
	defer sc.remove()
	rep := newReport(w.name, cfg.seed, cfg.traced)
	rep.host = readHost()
	calib := func() float64 {
		if cfg.tiny {
			return 0 // the self-test has no use for 0.4 s of SHA-256 per run
		}
		return float64(calibrate()) / 1e6
	}
	calibBefore := calib()

	build := func(tr *tracer, seconds float64) (world, time.Duration, error) {
		dir, err := sc.dir()
		if err != nil {
			return nil, 0, err
		}
		probeDir, err := sc.dir()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		wd, err := w.setup(&env{seed: cfg.seed, seconds: seconds, tiny: cfg.tiny, dir: dir, probeDir: probeDir, tr: tr})
		return wd, time.Since(start), err
	}
	// finish counts the failures, runs the checks and tears the world
	// down. A traced run has two passes; a failure in either fails the run.
	finish := func(wd world, ph *phase) error {
		account(rep, wd, ph)
		return wd.close()
	}

	if !cfg.traced {
		var wd world
		var times []float64
		for i := 0; i < setups; i++ {
			if wd != nil {
				if err := wd.close(); err != nil {
					return nil, err
				}
			}
			var took time.Duration
			if wd, took, err = build(nil, cfg.seconds); err != nil {
				return nil, err
			}
			times = append(times, took.Seconds())
		}
		ph := timedPhase(wd)
		if err := finish(wd, ph); err != nil {
			return nil, err
		}
		endToEndMetrics(rep, ph, median(times))
		rep.note("set-ups: %.3f s", times)
	} else {
		// The same schedule twice, on two fresh worlds: tracing off, then
		// on. Their difference is what tracing costs. The span buffer is
		// allocated before both, so both passes run with the same heap
		// size and therefore the same GC pacing, and a quarter-length
		// world is run and thrown away first: whichever pass comes first
		// in a process pays for its cold caches and for growing the heap,
		// which made the untraced pass the slower one (overhead -15 % to
		// -1 % at one second).
		tr := newTracer(1 << 20)
		if !cfg.tiny {
			warm, _, err := build(nil, cfg.seconds/4)
			if err != nil {
				return nil, err
			}
			warm.run(&measure{})
			if err := warm.close(); err != nil {
				return nil, err
			}
		}
		plain, _, err := build(nil, cfg.seconds)
		if err != nil {
			return nil, err
		}
		base := timedPhase(plain)
		if err := finish(plain, base); err != nil {
			return nil, err
		}
		beforeSetup := obs.TakeSnapshot()
		wd, took, err := build(tr, cfg.seconds)
		if err != nil {
			return nil, err
		}
		setup := phase{before: beforeSetup, after: obs.TakeSnapshot()}
		ph := timedPhase(wd)
		tr.stop()
		lerr := layerMetrics(rep, wd, ph, base, tr)
		rep.set("synth.generate_ms", setup.histMS("synth.generate"))
		rep.set("federation.relays", rep.values["federation.relays"]+setup.counter("federation.relays"))
		rep.set("society.train_ms", rep.values["society.train_ms"]+setup.histMS("society.train"))
		if err := finish(wd, ph); err != nil {
			return nil, err
		}
		if lerr != nil {
			return nil, lerr
		}
		endToEndMetrics(rep, ph, took.Seconds())
		if cfg.spans != "" {
			if err := tr.writeJSON(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	calibAfter := calib()
	rep.set("host.calib_ms", (calibBefore+calibAfter)/2)
	rep.note("host calibration loop: %.1f ms before, %.1f ms after", calibBefore, calibAfter)
	return rep, nil
}

// account adds one timed phase's outcome to the report: every operation
// the driver recorded as failed, and the world's output checks. One
// failure of either kind makes the run incorrect.
func account(rep *report, wd world, ph *phase) {
	rep.attempted = wd.attempted()
	rep.failed += ph.m.failed
	for _, e := range ph.m.errs {
		rep.note("failed: %s", e)
	}
	if err := wd.check(); err != nil {
		rep.failed++
		rep.note("failed check: %v", err)
	}
	rep.correct = rep.failed == 0
}

// endToEndMetrics derives the user-visible metrics from a timed phase.
func endToEndMetrics(rep *report, ph *phase, setupS float64) {
	n := float64(ph.m.decisions)
	if n == 0 {
		n = 1
	}
	rep.set("setup_s", setupS)
	rep.set("assoc_per_s", n/ph.wall.Seconds())
	if len(ph.m.assoc) > 0 {
		rep.note("decision time: p50 %.1f us, p90 %.1f us (%d samples)",
			percentile(ph.m.assoc, 50)/1e3, percentile(ph.m.assoc, 90)/1e3, len(ph.m.assoc))
	}
	rep.set("cpu_us_per_assoc", float64(ph.cpu)/1e3/n)
	rep.set("alloc_kb_per_assoc", float64(ph.alloc)/1024/n)
	rep.note("live heap after the timed phase: %.1f MiB", float64(ph.liveHeap)/(1<<20))
	rep.note("timed phase: %.3f s wall, %.3f s CPU (%.3f user + %.3f system), %d decisions (%d latency samples)",
		ph.wall.Seconds(), ph.cpu.Seconds(), ph.cpuUser.Seconds(), ph.cpuSys.Seconds(), ph.m.decisions, len(ph.m.assoc))
}
