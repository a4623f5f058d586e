//go:build !race

// Not under the race detector: its shadow allocations are counted too.

package synth

import (
	"runtime"
	"testing"
)

// TestGenerateAllocBudget pins what generating a default campus allocates
// over the flows it keeps (BenchmarkGenerate's B/flow): the figure a
// larger campus is sized by. It measures (go1.24) 123.7 B a flow; while
// sortFlows sorted a 16-byte key per flow it was 138.3.
func TestGenerateAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, _, err := Generate(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Flows))
	t.Logf("%d flows: %.1f B a flow", len(tr.Flows), perFlow)
	const maxPerFlow = 130
	if perFlow > maxPerFlow {
		t.Errorf("Generate allocates %.1f B a kept flow, budget %d", perFlow, maxPerFlow)
	}
}
