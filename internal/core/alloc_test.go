//go:build !race

// Not under the race detector: its shadow allocations are counted too.

package core

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestSelectBatchAllocs pins what a batch allocates once the pooled
// placer has grown to it: the map SelectBatch returns — for eight users
// (go1.24) the header and one group of eight slots — and nothing else,
// whether or not the batch has a clique to spread.
func TestSelectBatchAllocs(t *testing.T) {
	sel, users, views := trainedBatchFixture(t)
	reqs := make([]wlan.Request, 8)
	i, cliques := 0, obsCliques.Value()
	place := func() {
		eightCoArrivals(reqs, users, i)
		i++
		if _, err := sel.SelectBatch(reqs, views); err != nil {
			t.Fatal(err)
		}
	}
	for range users { // every batch of the cycle once: the buffers are at their largest
		place()
	}
	const batches = 200
	if got := testing.AllocsPerRun(batches, place); got != 2 {
		t.Errorf("a warmed 8-user SelectBatch allocates %v objects, want 2: the result map", got)
	}
	if got := obsCliques.Value() - cliques; got >= int64(i*8) {
		t.Errorf("%d cliques over %d batches: no batch had an edge, Algorithm 1's search never ran", got, i)
	}
}
