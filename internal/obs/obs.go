package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any non-negative increment; batching increments
// in a local variable and adding once keeps tight loops cheap).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time value that can move both ways — a snapshot
// sequence number, a published-state age, a queue depth. Unlike Counter
// it is Set, not accumulated.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta atomically and returns the new value —
// the race-free way to track a population (active connections, queue
// depth) from concurrent goroutines, where interleaved read-then-Set
// pairs could publish a stale value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBounds are the upper bounds (exclusive) of the histogram buckets;
// the final bucket is unbounded. Decade steps from 10µs to 10s cover
// everything from a single Select call to a full experiment sweep.
var histBounds = []time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// histLabels name the buckets in exports, parallel to histBounds plus
// the overflow bucket.
var histLabels = []string{
	"<10µs", "<100µs", "<1ms", "<10ms", "<100ms", "<1s", "<10s", "≥10s",
}

// Histogram is a fixed-bucket duration histogram (decade buckets from
// 10µs to 10s) that also tracks count, total and max. It serves as the
// per-stage latency breakdown of the pipeline.
type Histogram struct {
	buckets [8]atomic.Int64
	count   atomic.Int64
	nanos   atomic.Int64
	max     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(histBounds) && d >= histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.nanos.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Total returns the accumulated duration.
func (h *Histogram) Total() time.Duration { return time.Duration(h.nanos.Load()) }

// Registry is a named collection of metrics. The zero value is ready to
// use; most callers use the package-level default registry through
// GetCounter, GetGauge and GetHistogram.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// Default is the process-wide registry every Get* helper registers into.
var Default = &Registry{}

// setHelpLocked records the metric's help text (the Prometheus # HELP
// line). The first non-empty help string for a name wins.
func (r *Registry) setHelpLocked(name string, help []string) {
	if len(help) == 0 || help[0] == "" {
		return
	}
	if r.help == nil {
		r.help = make(map[string]string)
	}
	if _, ok := r.help[name]; !ok {
		r.help[name] = help[0]
	}
}

// Help returns the registered help text for a metric name ("" if none).
func (r *Registry) Help(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// GetCounter returns the registry's counter with the given name,
// creating it on first use. The optional help string documents what the
// counter counts; it becomes the Prometheus # HELP text.
func (r *Registry) GetCounter(name string, help ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	r.setHelpLocked(name, help)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GetGauge returns the registry's gauge with the given name, creating
// it on first use. The optional help string documents what the gauge
// tracks; it becomes the Prometheus # HELP text.
func (r *Registry) GetGauge(name string, help ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	r.setHelpLocked(name, help)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GetHistogram returns the registry's histogram with the given name,
// creating it on first use. The optional help string documents the
// observed region; it becomes the Prometheus # HELP text.
func (r *Registry) GetHistogram(name string, help ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	r.setHelpLocked(name, help)
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every registered metric (the metric objects stay
// registered, so package-level vars holding them remain valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.nanos.Store(0)
		h.max.Store(0)
	}
}

// GetCounter returns a counter from the default registry.
func GetCounter(name string, help ...string) *Counter { return Default.GetCounter(name, help...) }

// GetGauge returns a gauge from the default registry.
func GetGauge(name string, help ...string) *Gauge { return Default.GetGauge(name, help...) }

// GetHistogram returns a histogram from the default registry.
func GetHistogram(name string, help ...string) *Histogram { return Default.GetHistogram(name, help...) }

// HistogramSnapshot is the exported state of a Histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	TotalMS float64          `json:"total_ms"`
	MeanMS  float64          `json:"mean_ms"`
	MaxMS   float64          `json:"max_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time view of a registry, suitable for JSON
// encoding (encoding/json sorts map keys, so output is deterministic
// for a given metric state).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TakeSnapshot captures the registry's current metric values.
func (r *Registry) TakeSnapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Count:   h.Count(),
				TotalMS: ms(h.Total()),
				MaxMS:   ms(time.Duration(h.max.Load())),
			}
			if hs.Count > 0 {
				hs.MeanMS = hs.TotalMS / float64(hs.Count)
			}
			hs.Buckets = make(map[string]int64)
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					hs.Buckets[histLabels[i]] = n
				}
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// TakeSnapshot captures the default registry.
func TakeSnapshot() Snapshot { return Default.TakeSnapshot() }

// WriteJSON writes the registry snapshot as indented JSON with sorted
// keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.TakeSnapshot())
}

// WriteJSON writes the default registry's snapshot.
func WriteJSON(w io.Writer) error { return Default.WriteJSON(w) }

// Kinds returns every registered metric name mapped to its kind:
// "counter", "gauge" or "histogram".
func (r *Registry) Kinds() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	kinds := make(map[string]string,
		len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		kinds[n] = "counter"
	}
	for n := range r.gauges {
		kinds[n] = "gauge"
	}
	for n := range r.histograms {
		kinds[n] = "histogram"
	}
	return kinds
}

// Column is one flattened int64 series of the registry: a counter or
// gauge value, or one component (count, total nanoseconds, max, bucket)
// of a histogram. The flight recorder samples these.
type Column struct {
	Value int64
	// Cumulative marks series that only move up over a process's
	// lifetime (counters, histogram counts, totals and buckets)
	// as opposed to point-in-time values (gauges, histogram max).
	Cumulative bool
}

// Columns flattens the registry into named int64 series. Counters and
// gauges keep their name; a histogram h contributes "h#count", "h#ns", "h#max" and one
// "h#b<i>" per bucket (bucket i's upper bound is the i'th entry of the
// decade bounds, the last bucket unbounded). The "#" separator cannot
// appear in a metric name, so flattened names never collide with plain
// metrics.
func (r *Registry) Columns() map[string]Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	cols := make(map[string]Column,
		len(r.counters)+len(r.gauges)+11*len(r.histograms))
	for n, c := range r.counters {
		cols[n] = Column{Value: c.Value(), Cumulative: true}
	}
	for n, g := range r.gauges {
		cols[n] = Column{Value: g.Value()}
	}
	for n, h := range r.histograms {
		cols[n+"#count"] = Column{Value: h.count.Load(), Cumulative: true}
		cols[n+"#ns"] = Column{Value: h.nanos.Load(), Cumulative: true}
		cols[n+"#max"] = Column{Value: h.max.Load()}
		for i := range h.buckets {
			if v := h.buckets[i].Load(); v != 0 {
				cols[fmt.Sprintf("%s#b%d", n, i)] = Column{Value: v, Cumulative: true}
			}
		}
	}
	return cols
}
