package obs

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := &Registry{}
	c := r.GetCounter("test.counter")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestTimerAndHistogramConcurrent: a histogram observed from many
// goroutines keeps an exact count, total and bucket tally — the count and
// total a timed region needs.
func TestTimerAndHistogramConcurrent(t *testing.T) {
	r := &Registry{}
	h := r.GetHistogram("test.hist")
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	wantN := int64(workers * perWorker)
	if h.Count() != wantN {
		t.Fatalf("count = %d, want %d", h.Count(), wantN)
	}
	if got := h.Total(); got != time.Duration(wantN)*time.Millisecond {
		t.Fatalf("histogram total = %v", got)
	}
	snap := r.TakeSnapshot()
	// 1ms lands in the "<10ms" bucket.
	if got := snap.Histograms["test.hist"].Buckets["<10ms"]; got != wantN {
		t.Fatalf("bucket <10ms = %d, want %d", got, wantN)
	}
}

func TestGauge(t *testing.T) {
	r := &Registry{}
	g := r.GetGauge("test.gauge")
	if g.Value() != 0 {
		t.Errorf("zero gauge = %d", g.Value())
	}
	g.Set(42)
	g.Set(7) // gauges move both ways
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	if r.GetGauge("test.gauge") != g {
		t.Error("GetGauge must return the same instance")
	}
	snap := r.TakeSnapshot()
	if snap.Gauges["test.gauge"] != 7 {
		t.Errorf("snapshot gauge = %d, want 7", snap.Gauges["test.gauge"])
	}
	r.Reset()
	if g.Value() != 0 {
		t.Errorf("gauge after reset = %d, want 0", g.Value())
	}
}

func TestGetReturnsSameMetric(t *testing.T) {
	r := &Registry{}
	if r.GetCounter("x") != r.GetCounter("x") {
		t.Error("GetCounter should return the same instance")
	}
	if r.GetGauge("x") != r.GetGauge("x") {
		t.Error("GetGauge should return the same instance")
	}
	if r.GetHistogram("x") != r.GetHistogram("x") {
		t.Error("GetHistogram should return the same instance")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := &Registry{}
	h := r.GetHistogram("b")
	h.Observe(time.Microsecond)      // <10µs
	h.Observe(50 * time.Microsecond) // <100µs
	h.Observe(5 * time.Millisecond)  // <10ms
	h.Observe(2 * time.Second)       // <10s
	h.Observe(20 * time.Second)      // ≥10s
	snap := r.TakeSnapshot().Histograms["b"]
	want := map[string]int64{"<10µs": 1, "<100µs": 1, "<10ms": 1, "<10s": 1, "≥10s": 1}
	for label, n := range want {
		if snap.Buckets[label] != n {
			t.Errorf("bucket %s = %d, want %d", label, snap.Buckets[label], n)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d", snap.Count)
	}
	if snap.MaxMS != 20000 {
		t.Errorf("max = %v ms, want 20000", snap.MaxMS)
	}
}

func TestJSONExport(t *testing.T) {
	r := &Registry{}
	r.GetCounter("a.count").Add(7)
	r.GetHistogram("b.hist").Observe(20 * time.Millisecond)
	r.GetHistogram("c.hist").Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.count"] != 7 {
		t.Errorf("counter = %d", snap.Counters["a.count"])
	}
	hs := snap.Histograms["b.hist"]
	if hs.Count != 1 || hs.TotalMS != 20 || hs.MeanMS != 20 || hs.MaxMS != 20 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if snap.Histograms["c.hist"].Count != 1 {
		t.Errorf("histogram snapshot = %+v", snap.Histograms["c.hist"])
	}

	// Deterministic: a second export of the same state is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("JSON export is not deterministic")
	}
}

func TestReset(t *testing.T) {
	r := &Registry{}
	c := r.GetCounter("r.count")
	g := r.GetGauge("r.gauge")
	h := r.GetHistogram("r.hist")
	c.Add(3)
	g.Set(5)
	h.Observe(time.Second)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Total() != 0 {
		t.Error("Reset did not zero metrics")
	}
	// The instances stay registered and usable.
	c.Inc()
	if r.GetCounter("r.count").Value() != 1 {
		t.Error("metric lost after Reset")
	}
}

func TestNames(t *testing.T) {
	r := &Registry{}
	r.GetCounter("z")
	r.GetGauge("a")
	r.GetHistogram("m")
	got := r.Kinds()
	want := map[string]string{"a": "gauge", "m": "histogram", "z": "counter"}
	if !maps.Equal(got, want) {
		t.Errorf("Kinds = %v, want %v", got, want)
	}
}

func TestStartProfiling(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := StartProfiling(ProfileConfig{CPUFile: cpu, MemFile: mem})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile is non-trivial.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// No-op config: stop must be safe.
	stop2, err := StartProfiling(ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}
