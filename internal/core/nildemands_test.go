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
// views: a view literal built without a domain has no membership source
// and so no members, and every selector must decide over it, beside
// domain-backed views, without panicking.
func TestNilUserDemandsViews(t *testing.T) {
	views := append(domainViews(t,
		[]wlan.APView{{ID: "ap-a", CapacityBps: 1000, LoadBps: 10}, {ID: "ap-b", CapacityBps: 1000, LoadBps: 5}},
		[]member{{"a", 3}, {"b", 4}, {"c", 5}}, []member{{"d", 7}, {"e", 2}}),
		wlan.APView{ID: "ap-literal", CapacityBps: 1000, LoadBps: 20}) // no domain, no members
	if users, demands := views[2].Members(); users != nil || demands != nil || views[2].SumDemands([]trace.UserID{"a"}) != 0 {
		t.Fatalf("literal view has members %v, %v", users, demands)
	}
	req := wlan.Request{User: "u", At: 100, DemandBps: 3}

	everyone := []trace.UserID{"a", "b", "c", "d", "e", "u", "v", "w"}
	sel, err := NewSelector(scanFriends{allFriends{}, everyone, 0.3}, DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Select(req, views); err != nil {
		t.Fatalf("S3 Select over a literal view: %v", err)
	}
	reqs := []wlan.Request{
		{User: "u", At: 100, DemandBps: 3},
		{User: "v", At: 100, DemandBps: 4},
		{User: "w", At: 100, DemandBps: 5},
	}
	placed, err := sel.SelectBatch(reqs, views)
	if err != nil {
		t.Fatalf("S3 SelectBatch over a literal view: %v", err)
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
			t.Errorf("%s over a literal view: %v", s.Name(), err)
		}
	}
}
