package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
)

// env is what a workload's set-up receives. Everything a world does is a
// function of seed and seconds; dir is an empty scratch directory inside
// the checkout; tr is nil in the untraced run.
type env struct {
	seed    int64
	seconds float64
	tiny    bool // self-test sizes: a few hundred operations
	dir     string
	// probeDir is a second empty directory, for the traced run's
	// stand-alone probes.
	probeDir string
	tr       *tracer
}

// ops scales a workload's calibrated operations-per-second constant to
// the requested run length. The result is a fixed count, never a time
// limit: the engine's state grows with operations, so a time-boxed run
// would measure a different program once the program gets faster.
func (e *env) ops(perSecond int) int {
	if e.tiny {
		return 240
	}
	n := int(float64(perSecond)*e.seconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// world is one set-up instance of a workload.
type world interface {
	// attempted is the number of operations the schedule asks for
	// (arrivals, re-associations and departures; in paperfigs, sessions
	// placed and artifacts); called after run.
	attempted() int
	// run executes the timed phase.
	run(m *measure)
	// check verifies the run's outputs; a non-nil error fails the run.
	check() error
	// layers adds the workload's per-layer metrics to a traced report.
	layers(r *report, ph *phase, st *spanStats) error
	close() error
}

// workload is a named, documented way to build a world. To add one,
// add a file that registers it from init; nothing else changes except
// the workloads list in BENCHMARK.json.
type workload struct {
	name  string
	why   string
	setup func(e *env) (world, error)
}

var workloads []workload

func register(w workload) {
	workloads = append(workloads, w)
	sort.Slice(workloads, func(i, j int) bool { return workloads[i].name < workloads[j].name })
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is everything measured around one timed phase.
type phase struct {
	m        *measure
	wall     time.Duration
	cpu      time.Duration // user + system
	cpuUser  time.Duration
	cpuSys   time.Duration
	alloc    uint64 // bytes allocated
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	liveHeap uint64 // HeapAlloc after a forced GC, world still alive
	before   obs.Snapshot
	after    obs.Snapshot
}

// counter is an obs counter's increase over the phase.
func (p *phase) counter(name string) float64 {
	return float64(p.after.Counters[name] - p.before.Counters[name])
}

// histMS is an obs histogram's total time over the phase, in ms.
func (p *phase) histMS(name string) float64 {
	return p.after.Histograms[name].TotalMS - p.before.Histograms[name].TotalMS
}

func (p *phase) histCount(name string) float64 {
	return float64(p.after.Histograms[name].Count - p.before.Histograms[name].Count)
}

// timedPhase runs w's timed phase between a forced GC and a forced GC,
// reading clocks, allocator and obs registry at the same boundaries.
func timedPhase(w world) *phase {
	p := &phase{m: &measure{}}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	p.before = obs.TakeSnapshot()
	user0, sys0 := cpuTime()
	start := time.Now()
	w.run(p.m)
	p.wall = time.Since(start)
	user1, sys1 := cpuTime()
	p.cpuUser, p.cpuSys = user1-user0, sys1-sys0
	p.cpu = p.cpuUser + p.cpuSys
	runtime.ReadMemStats(&ms1)
	p.after = obs.TakeSnapshot()
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.liveHeap = ms2.HeapAlloc
	return p
}

// scratch hands out empty directories under .bench_tmp in the current
// directory (the checkout root) and removes them all at exit.
type scratch struct {
	root string
	n    int
}

func newScratch() (*scratch, error) {
	root := filepath.Join(".bench_tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir() (string, error) {
	s.n++
	d := filepath.Join(s.root, fmt.Sprintf("w%d", s.n))
	return d, os.MkdirAll(d, 0o755)
}

func (s *scratch) remove() {
	os.RemoveAll(s.root)
	os.Remove(filepath.Dir(s.root)) // only when no other run is using it
}
