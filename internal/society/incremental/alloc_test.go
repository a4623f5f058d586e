//go:build !race

// Not under the race detector: its shadow allocations are counted too.

package incremental

import (
	"bytes"
	"runtime"
	"testing"
)

// TestReadStateAllocBudget pins what restoring a campus-sized state
// allocates when its bytes come in a bytes.Buffer, as a checkpoint restore
// hands them: the engine decodes them in place instead of copying them
// first, lays the tally rows into one array and fills the probability
// shards in order, by append. It measures (go1.24) 4 693 904 B for a
// 442 739 B state, the least of three restores; the ceiling is ≈ 15 %
// over that. While the tallies were a map filled row by row, a restore
// took 5 514 400 B; while ReadState read a buffer through io.ReadAll,
// which grows its copy by doubling, 8 052 200 B.
func TestReadStateAllocBudget(t *testing.T) {
	e := campusSizedEngine(t, -1)
	var state bytes.Buffer
	if err := e.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := New(e.cfg).ReadState(bytes.NewBuffer(state.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	restore()
	least := uint64(1 << 63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		restore()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a %d B state: %d B per restore", state.Len(), least)
	const maxBytes = 5_400_000
	if least > maxBytes {
		t.Errorf("restoring a %d B state allocates %d B, budget %d", state.Len(), least, maxBytes)
	}
}
