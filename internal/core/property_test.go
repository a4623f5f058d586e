package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// randomIndex builds a random symmetric social index over a user universe.
func randomIndex(rng *rand.Rand, users []trace.UserID, density float64) mapIndex {
	idx := mapIndex{}
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			if rng.Float64() < density {
				idx[pair(users[i], users[j])] = rng.Float64()
			}
		}
	}
	return idx
}

// TestSelectNeverViolatesCapacityWhenFeasible: whenever at least one AP
// can absorb the demand, S³ must not pick an AP that cannot.
func TestSelectNeverViolatesCapacityWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	universe := make([]trace.UserID, 20)
	for i := range universe {
		universe[i] = trace.UserID(fmt.Sprintf("u%02d", i))
	}
	f := func() bool {
		idx := randomIndex(rng, universe, 0.3)
		s, err := NewSelector(idx, SelectorConfig{})
		if err != nil {
			return false
		}
		nAPs := 2 + rng.Intn(5)
		demand := 1 + rng.Float64()*100
		aps := make([]wlan.APView, 0, nAPs)
		on := make([][]member, nAPs)
		anyFeasible := false
		for i := 0; i < nAPs; i++ {
			capacity := rng.Float64() * 300
			load := rng.Float64() * capacity
			for j := 0; j < rng.Intn(5); j++ {
				on[i] = append(on[i], member{universe[rng.Intn(len(universe))], rng.Float64() * 50})
			}
			ap := wlan.APView{
				ID:          trace.APID(fmt.Sprintf("ap%d", i)),
				CapacityBps: capacity,
				LoadBps:     load,
			}
			if ap.HasCapacityFor(demand) {
				anyFeasible = true
			}
			aps = append(aps, ap)
		}
		aps = domainViews(t, aps, on...)
		req := wlan.Request{User: universe[rng.Intn(len(universe))], DemandBps: demand}
		got, err := s.Select(req, aps)
		if err != nil {
			return false
		}
		if !anyFeasible {
			return true // fallback may overload; only feasibility matters here
		}
		for _, ap := range aps {
			if ap.ID == got {
				return ap.HasCapacityFor(demand)
			}
		}
		return false // chose an unknown AP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSelectBatchAssignsEveryoneToKnownAPs: batch placement must cover
// every requested user with a valid AP.
func TestSelectBatchAssignsEveryoneToKnownAPs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	universe := make([]trace.UserID, 16)
	for i := range universe {
		universe[i] = trace.UserID(fmt.Sprintf("u%02d", i))
	}
	f := func() bool {
		idx := randomIndex(rng, universe, 0.4)
		s, err := NewSelector(idx, SelectorConfig{BeamWidth: 16})
		if err != nil {
			return false
		}
		nAPs := 2 + rng.Intn(4)
		aps := make([]wlan.APView, 0, nAPs)
		known := map[trace.APID]bool{}
		for i := 0; i < nAPs; i++ {
			id := trace.APID(fmt.Sprintf("ap%d", i))
			known[id] = true
			aps = append(aps, wlan.APView{ID: id, LoadBps: rng.Float64() * 100})
		}
		nReqs := 1 + rng.Intn(8)
		perm := rng.Perm(len(universe))
		reqs := make([]wlan.Request, 0, nReqs)
		for i := 0; i < nReqs; i++ {
			reqs = append(reqs, wlan.Request{
				User:      universe[perm[i]],
				DemandBps: rng.Float64() * 50,
			})
		}
		got, err := s.SelectBatch(reqs, aps)
		if err != nil {
			return false
		}
		if len(got) != nReqs {
			return false
		}
		for _, r := range reqs {
			ap, ok := got[r.User]
			if !ok || !known[ap] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSelectDeterministic: identical inputs give identical outputs.
func TestSelectDeterministic(t *testing.T) {
	idx := mapIndex{pair("a", "b"): 0.7, pair("a", "c"): 0.4}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := domainViews(t, []wlan.APView{{ID: "x", LoadBps: 5}, {ID: "y", LoadBps: 7}, {ID: "z", LoadBps: 9}},
		[]member{{"b", 3}}, []member{{"c", 3}})
	req := wlan.Request{User: "a", DemandBps: 3}
	first, err := s.Select(req, aps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := s.Select(req, aps)
		if err != nil || got != first {
			t.Fatalf("iteration %d: %v, %v (first %v)", i, got, err, first)
		}
	}
}
