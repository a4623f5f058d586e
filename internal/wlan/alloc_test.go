//go:build !race

// Not under the race detector: its shadow allocations are counted too.

package wlan

import (
	"runtime"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestSimulateAllocBudget pins what one replay of the 10 000-session
// bench trace under LLF allocates: the sessions' arrival order as indices,
// each domain's Assigned at its final size, the event queue sized once and
// one three-word closure per departure; a decision itself — one snapshot
// into the domain's reused buffer, one Select — allocates nothing. It
// measures (go1.24) 1 812 110 B in 10 270 objects (± a few); the ceilings
// are ≈ 15 % over that.
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
	const maxBytes, maxObjects = 2_085_000, 11_800
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one replay allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}
