package core

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// allFriends marks every pair socially close, so friendLoadBuckets finds
// every member of each view — the only selector code that reads the
// per-user demands.
type allFriends struct{}

func (allFriends) Index(u, v trace.UserID) float64 {
	if u == v {
		return 0
	}
	return 1
}

// TestNilUserDemandsViews is the nil-handling regression test for
// hand-built views: a view may legitimately carry members without
// demands (callers that do not track per-user demand), or a demand
// slice shorter than the member list. Every selector must treat the
// missing entries as one requester-demand unit instead of panicking.
func TestNilUserDemandsViews(t *testing.T) {
	views := []wlan.APView{
		wlan.APView{ID: "ap-nil", CapacityBps: 1000, LoadBps: 10, RSSI: -40}.
			WithMembers([]trace.UserID{"a", "b", "c"}, nil), // no per-user demand tracked
		wlan.APView{ID: "ap-short", CapacityBps: 1000, LoadBps: 5, RSSI: -60}.
			WithMembers([]trace.UserID{"d", "e"}, []float64{7}), // shorter than the members
	}
	req := wlan.Request{User: "u", At: 100, DemandBps: 3}

	everyone := []trace.UserID{"a", "b", "c", "d", "e", "u", "v", "w"}
	sel, err := NewSelector(scanFriends{allFriends{}, everyone, 0.3}, DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Select(req, views); err != nil {
		t.Fatalf("S3 Select with nil UserDemands: %v", err)
	}
	reqs := []wlan.Request{
		{User: "u", At: 100, DemandBps: 3},
		{User: "v", At: 100, DemandBps: 4},
		{User: "w", At: 100, DemandBps: 5},
	}
	placed, err := sel.SelectBatch(reqs, views)
	if err != nil {
		t.Fatalf("S3 SelectBatch with nil UserDemands: %v", err)
	}
	if len(placed) != len(reqs) {
		t.Fatalf("SelectBatch placed %d of %d users", len(placed), len(reqs))
	}

	selectors := []wlan.Selector{
		baseline.LLF{},
		baseline.LeastUsers{},
		baseline.StrongestRSSI{},
		baseline.NewRandom(1),
		&baseline.RoundRobin{},
	}
	for _, s := range selectors {
		if _, err := s.Select(req, views); err != nil {
			t.Errorf("%s with nil UserDemands: %v", s.Name(), err)
		}
	}
}
