package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (the self-test compares them).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	what               string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median wall time of the workload's set-up (three set-ups per run)"},
	{"assoc_per_s", "1/s", "higher", 0.25, "association decisions completed per wall second over the fixed schedule"},
	{"cpu_us_per_assoc", "us", "lower", 0.25, "process user+system CPU time per decision, driver included"},
	{"alloc_kb_per_assoc", "KiB", "lower", 0.15, "bytes allocated per decision"},
}

// report collects one run's metrics by name.
type report struct {
	workload  string
	seed      int64
	traced    bool
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string
	host      hostInfo
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{workload: workload, seed: seed, traced: traced, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// writeText prints every metric by name with its unit and definition.
func (r *report) writeText(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", r.workload, r.seed, mode)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d pinned=%v %s load1=%.2f\n",
		r.host.NProc, r.host.GoMaxProcs, r.host.Pinned, r.host.GoVersion, r.host.Load1)
	fmt.Fprintf(w, "operations: attempted %d, failed %d, outputs correct: %v\n", r.attempted, r.failed, r.correct)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-34s %16.4f %-5s %s\n", d.name, r.values[d.name], d.unit, d.what)
	}
	var extra []string
	known := make(map[string]bool)
	for _, d := range r.defs() {
		known[d.name] = true
	}
	for name := range r.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-34s %16.4f (not in this run's result line)\n", name, r.values[name])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

// writeJSON prints the driver's result line.
func (r *report) writeJSON(w io.Writer) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]mv)}
	for _, d := range r.defs() {
		out.Metrics[d.name] = mv{r.values[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
