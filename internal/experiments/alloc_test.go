//go:build !race

// Not under the race detector: its shadow allocations are counted too.

package experiments

import (
	"math"
	"runtime"
	"testing"

	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
)

// TestSimulateAllocBudget pins what one S³ replay of the small campus's
// test days (800 sessions) allocates under RunS3Model — the selector's
// close-friend rows included, training not: the unit a sweep pays once
// per cell. It measures (go1.24) 257 500 B in 1 305 objects (± 1 KB, ± 2):
// the rows, the arrival order, Assigned, the event queue, a closure per
// departure and the result map of each of the 157 batches — Algorithm 1
// itself works in a pooled placer. The ceilings are ≈ 15 % over that.
func TestSimulateAllocBudget(t *testing.T) {
	campus := synth.DefaultConfig()
	campus.Users, campus.Buildings, campus.Days = 150, 3, 12
	d, err := Prepare(campus, 9)
	if err != nil {
		t.Fatal(err)
	}
	model, err := society.Train(d.Train, d.Profiles, society.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	replay := func() {
		if _, err := d.RunS3Model(model, core.DefaultSelectorConfig()); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d sessions: %d B, %d objects per replay", len(d.Test.Sessions), bytes, objects)
	const maxBytes, maxObjects = 296_000, 1_500
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one replay allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}

// TestPrepareAllocBudget pins what preparing the small campus (2 858
// sessions, 40 800 flows drawn; train on 9 of 12 days) allocates:
// generation with its training flows folded into the profiles as they are
// drawn, the split, the demand estimator and the Trainer every training of
// the dataset goes through. It measures (go1.24) 1 455 400 B in 3 930
// objects (± 1 200 B, ± 5), of which the Trainer ≈ 119 000 B in 14; the
// ceilings are ≈ 15 % over that. While Generate sorted a flow list that
// BuildProfiles then read, the same Prepare allocated 6 445 500 B in 4 121;
// while Generate also regrew it, seeded a generator per (user, day), staged
// its flows as trace.Flows and SplitAt copied the trace, 45 000 000 B in
// 8 685.
func TestPrepareAllocBudget(t *testing.T) {
	campus := synth.DefaultConfig()
	campus.Users, campus.Buildings, campus.Days = 150, 3, 12
	prepare := func() *Data {
		d, err := Prepare(campus, 9)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	prepare()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := prepare()
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d sessions: %d B, %d objects per Prepare", len(d.Full.Sessions), bytes, objects)
	const maxBytes, maxObjects = 1_674_000, 4_520
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one Prepare allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}

// TestMeanBalanceAllocBudget pins what scoring one S³ replay of the small
// campus's test days allocates under MeanBalance: one bins × APs buffer
// sized to the largest domain, which every domain
// refills, each domain's AP-to-column map, the sorted controller list,
// the Welford and the mean. It measures (go1.24) 25 432 B in 10 objects;
// the ceilings are ≈ 15 % over that. While every domain built a bins × APs
// matrix with a row header per bin, a Series and a copy of its active
// values, the same call allocated 169 200 B in 25.
func TestMeanBalanceAllocBudget(t *testing.T) {
	campus := synth.DefaultConfig()
	campus.Users, campus.Buildings, campus.Days = 150, 3, 12
	d, err := Prepare(campus, 9)
	if err != nil {
		t.Fatal(err)
	}
	model, err := society.Train(d.Train, d.Profiles, society.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunS3Model(model, core.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	score := func() {
		if _, err := MeanBalance(res); err != nil {
			t.Fatal(err)
		}
	}
	score()
	// The least of five passes: a background allocation elsewhere in the
	// test binary must not count against a budget this small.
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		score()
		runtime.ReadMemStats(&after)
		bytes, objects = min(bytes, after.TotalAlloc-before.TotalAlloc), min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d domains: %d B, %d objects per MeanBalance", len(res.Domains), bytes, objects)
	const maxBytes, maxObjects = 29_300, 12
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one MeanBalance allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}
