package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinyRun is one traced run at self-test sizes.
func tinyRun(t *testing.T, w workload, seed int64) *report {
	t.Helper()
	rep, err := runWorkload(w, runConfig{seed: seed, seconds: 1, traced: true, tiny: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !rep.correct || rep.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", w.name, seed, rep.failed, rep.attempted, rep.notes)
	}
	return rep
}

// Every workload is a pure function of its seed: the same seed makes
// the same assignments and the same counts, another seed does not.
func TestWorkloadsAreDeterministic(t *testing.T) {
	if len(workloads) != 4 {
		t.Fatalf("have %d workloads, want 4", len(workloads))
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, b, other := tinyRun(t, w, 1), tinyRun(t, w, 1), tinyRun(t, w, 2)
			for _, name := range exactMetrics {
				if a.values[name] != b.values[name] {
					t.Errorf("%s: %v then %v for the same seed", name, a.values[name], b.values[name])
				}
			}
			if a.values["protocol.select_retries"] != 0 {
				t.Errorf("protocol.select_retries = %v with one request in flight", a.values["protocol.select_retries"])
			}
			// Heap objects per decision: the program's allocations repeat
			// exactly, but over a few hundred operations the ones made on
			// wall-clock ticks (journal flusher, timers; more of them under
			// -race) are a visible share.
			x, y := a.values["runtime.allocs_per_assoc"], b.values["runtime.allocs_per_assoc"]
			if math.Abs(x-y) > 0.10*x {
				t.Errorf("runtime.allocs_per_assoc: %v then %v for the same seed", x, y)
			}
			if a.values["driver.assign_hash"] == other.values["driver.assign_hash"] {
				t.Errorf("seeds 1 and 2 made the same assignments (hash %v)", a.values["driver.assign_hash"])
			}
			if w.name == "relay3" {
				if a.values["federation.relay_errors"] != 0 {
					t.Errorf("federation.relay_errors = %v", a.values["federation.relay_errors"])
				}
			} else if a.values["federation.relay_hop_us"] != 0 {
				t.Errorf("federation.relay_hop_us = %v outside relay3", a.values["federation.relay_hop_us"])
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children [10,30), [20,50) (overlapping: covered
	// once → 40) and [90,120) (clipped to the parent → 10). The first
	// child has a grandchild [12,20), which is not root's.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a.inner", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "open", Start: 5, End: -1, Parent: 0},
	}
	want := []int64{50, 12, 8, 30, 30, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer(8)
	tr.setOp(7)
	root := tr.begin("root")
	child := tr.begin("child")
	detached := tr.begin("background") // ends after its parent, out of order
	tr.end(child)
	sibling := tr.begin("sibling")
	tr.end(detached)
	tr.end(sibling)
	tr.end(root)
	tr.stop()
	if late := tr.begin("late"); late != -1 {
		t.Errorf("begin after stop recorded span %d", late)
	}
	wantParent := map[string]int32{"root": -1, "child": root, "background": child, "sibling": detached}
	for _, s := range tr.spans {
		if s.Parent != wantParent[s.Name] {
			t.Errorf("%s: parent %d, want %d", s.Name, s.Parent, wantParent[s.Name])
		}
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("%s: op %d, interval [%d, %d]", s.Name, s.Op, s.Start, s.End)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
	var none *tracer
	none.end(none.begin("untraced")) // must not panic
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// sabotagedRun sets a tiny world up, lets sabotage break it, and runs
// the timed phase and the accounting every run goes through.
func sabotagedRun(t *testing.T, name string, sabotage func(world)) *report {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sc, err := newScratch()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.remove()
	dir, err := sc.dir()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := w.setup(&env{seed: 1, seconds: 1, tiny: true, dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sabotage(wd)
	rep := newReport(name, 1, false)
	account(rep, wd, timedPhase(wd))
	if err := wd.close(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// A failure the driver records fails the run even when every decision
// was completed and every end-state check holds: an assignment the
// driver's model does not admit, and a departure nobody confirms.
func TestRecordedFailuresFailTheRun(t *testing.T) {
	t.Run("admission", func(t *testing.T) {
		rep := sabotagedRun(t, "dense100k", func(wd world) {
			for ap := range wd.(*dense).drv.capacity {
				wd.(*dense).drv.capacity[ap] = 1 // bps: nothing fits
			}
		})
		if rep.correct || rep.failed != rep.attempted || rep.attempted != 240 {
			t.Errorf("correct=%v, %d of %d operations failed; want every one of 240: %v",
				rep.correct, rep.failed, rep.attempted, rep.notes)
		}
	})
	t.Run("departure", func(t *testing.T) {
		rep := sabotagedRun(t, "relay3", func(wd world) {
			w := wd.(*relay)
			w.ops = w.ops[:8]             // four association/departure pairs
			w.drv.departed = newBarrier() // one the controllers never signal
			w.drv.timeout = 20 * time.Millisecond
		})
		if rep.correct || rep.failed != 4 || rep.attempted != 8 {
			t.Errorf("correct=%v, %d of %d operations failed; want the 4 departures of 8: %v",
				rep.correct, rep.failed, rep.attempted, rep.notes)
		}
	})
}

// BENCHMARK.json at the repository root names the same workloads and
// metrics, with the same units, directions and bounds, as the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Paths                      []string
		Workloads, EndToEnd, Layer []entry
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatal(err)
	}
	for key, into := range map[string]interface{}{"paths": &doc.Paths, "workloads": &doc.Workloads,
		"end_to_end": &doc.EndToEnd, "per_layer": &doc.Layer} {
		if err := json.Unmarshal(generic[key], into); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d registered", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, registered %q (or their whys differ)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, listed []entry, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d in code", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better || l.Bound != d.bound {
				t.Errorf("%s %d: listed %+v, code has %s %s %s %v", kind, i, l, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.Layer, perLayer)
}
