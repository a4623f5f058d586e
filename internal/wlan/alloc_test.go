//go:build !race

// Not under the race detector: its shadow allocations are counted too.

package wlan

import (
	"math"
	"runtime"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestSimulateAllocBudget pins what one replay of the 10 000-session
// bench trace under LLF allocates: the sessions' arrival order as indices,
// each domain's Assigned at its final size and the heap of pending
// departures, values grown by doubling to the most sessions open at once.
// There is no event queue: the replay merges the arrival order, that heap
// and the next report tick, and keeps no closure per departure. A decision
// itself — one snapshot into the domain's reused buffer, one Select —
// allocates nothing. It measures (go1.24) 1 056 232 B in 244 objects
// (± a few); the ceilings are ≈ 15 % over that.
func TestSimulateAllocBudget(t *testing.T) {
	tr := benchTrace(10000)
	simulate := func() {
		if _, err := Simulate(tr, Config{
			SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
		}); err != nil {
			t.Fatal(err)
		}
	}
	simulate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	simulate()
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d B, %d objects per replay", bytes, objects)
	const maxBytes, maxObjects = 1_215_000, 280
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one replay allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}

// TestEachBinAllocBudget pins what one EachBin pass over unevenReplay's
// four domains (2, 4, 3 and 1 APs) allocates: one bins × 4 buffer, sized
// to the largest domain before the first is binned, each domain's
// AP-to-column map and the sorted controller list. It measures (go1.24)
// 10 816 B in 10 objects; the ceilings are ≈ 15 % over that. A buffer
// sized by the first domain regrows at the second: 26 496 B in 13.
func TestEachBinAllocBudget(t *testing.T) {
	res := unevenReplay(t)
	pass := func() {
		if err := res.EachBin(func(trace.ControllerID, int, []float64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	// The least of five passes: a background allocation elsewhere in the
	// test binary must not count against a budget this small.
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		bytes, objects = min(bytes, after.TotalAlloc-before.TotalAlloc), min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d B, %d objects per pass", bytes, objects)
	const maxBytes, maxObjects = 12_400, 11
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one EachBin pass allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}
