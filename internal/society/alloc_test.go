//go:build !race

// Not under the race detector: it makes sync.Pool drop a share of what is
// put back, so a warmed Train reallocates its buffers at random.

package society

import (
	"runtime"
	"testing"
)

// allocsOf reports the bytes and objects one call of f allocates: the
// smallest of five runs, so a collection that empties the pool between
// two of them does not count against the budget.
func allocsOf(f func()) (bytes, objects uint64) {
	bytes, objects = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for run := 0; run < 5; run++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}

// TestTrainAllocBudget pins what one warmed training of the small campus
// allocates: what it keeps (the pair table, the user ranks, the types)
// plus the interning's users, APs and maps and k-means; the visits, the
// event list and the sort buffer come from the pool. It measures (go1.24)
// 244 800 B in 455 objects with 15 days of history and 269 376 B in 455
// with the full window, the same every run; the ceilings are ≈ 15 % over
// the 231 752 B in 443 and 256 328 B in 443 it read before Train became a
// one-shot Trainer, whose interning is the difference. While Model
// exported three maps over pairs beside the table the same trainings
// allocated 916 816 B in 493 objects and 1 146 352 B in 501; before the
// buffers were sized from counts and pooled, 2 273 184 B in 4 195 objects
// and 2 909 248 B in 4 267.
func TestTrainAllocBudget(t *testing.T) {
	tr, profiles := smallCampus(t)
	for _, tc := range []struct {
		history              int
		maxBytes, maxObjects uint64
	}{
		{15, 266_000, 510},
		{0, 295_000, 510},
	} {
		cfg := DefaultConfig()
		cfg.HistoryDays = tc.history
		train := func() {
			if _, err := Train(tr, profiles, cfg); err != nil {
				t.Fatal(err)
			}
		}
		train() // warm the pool at this window's sizes
		bytes, objects := allocsOf(train)
		t.Logf("history %d: %d B, %d objects per training", tc.history, bytes, objects)
		if bytes > tc.maxBytes || objects > tc.maxObjects {
			t.Errorf("history %d: a warmed Train allocates %d B in %d objects, budget %d B in %d",
				tc.history, bytes, objects, tc.maxBytes, tc.maxObjects)
		}
	}
}

// TestTrainerAllocBudget pins what one training on a warmed Trainer of the
// small campus allocates: what the model keeps (the pair table, the
// window's users and their ranks) and the counting sort's two bucket
// arrays. The clustering — feature vectors, k-means, the types — ran on
// the Trainer's first training and is shared; the event and sort buffers
// come from the pool. It measures (go1.24) 155 752 B in 18 objects with 15
// days of history and 180 328 B in 18 with the full window, the same every
// run; the ceilings are ≈ 15 % over that. A one-shot Train of the same
// window (TestTrainAllocBudget) adds the interning and the clustering:
// ≈ 89 000 B in 437 objects.
func TestTrainerAllocBudget(t *testing.T) {
	tr, profiles := smallCampus(t)
	trainer := NewTrainer(tr, profiles)
	for _, tc := range []struct {
		history              int
		maxBytes, maxObjects uint64
	}{
		{15, 179_000, 21},
		{0, 207_000, 21},
	} {
		cfg := DefaultConfig()
		cfg.HistoryDays = tc.history
		train := func() {
			if _, err := trainer.Train(cfg); err != nil {
				t.Fatal(err)
			}
		}
		train() // cluster, and warm the pool at this window's sizes
		bytes, objects := allocsOf(train)
		t.Logf("history %d: %d B, %d objects per training", tc.history, bytes, objects)
		if bytes > tc.maxBytes || objects > tc.maxObjects {
			t.Errorf("history %d: a warmed Trainer.Train allocates %d B in %d objects, budget %d B in %d",
				tc.history, bytes, objects, tc.maxBytes, tc.maxObjects)
		}
	}
}
