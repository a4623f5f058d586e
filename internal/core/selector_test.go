package core

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// mapIndex is a test SocialIndex backed by a symmetric map.
type mapIndex map[[2]trace.UserID]float64

func (m mapIndex) Index(u, v trace.UserID) float64 {
	if v < u {
		u, v = v, u
	}
	return m[[2]trace.UserID{u, v}]
}

func pair(u, v trace.UserID) [2]trace.UserID {
	if v < u {
		u, v = v, u
	}
	return [2]trace.UserID{u, v}
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil, SelectorConfig{}); err == nil {
		t.Error("nil social index should error")
	}
	s, err := NewSelector(mapIndex{}, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "S3" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.cfg.EdgeThreshold != 0.3 || s.cfg.BeamWidth != 64 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

func TestSelectAvoidsSocialFriends(t *testing.T) {
	// u's friend w sits on ap1; ap2 is slightly busier but socially
	// empty. S³ must pick ap2 (min social cost), unlike LLF which would
	// pick ap1.
	idx := mapIndex{pair("u", "w"): 0.9}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := domainViews(t, []wlan.APView{{ID: "ap1", LoadBps: 10}, {ID: "ap2", LoadBps: 20}},
		[]member{{"w", 5}}, []member{{"x", 5}})
	got, err := s.Select(wlan.Request{User: "u", DemandBps: 5}, aps)
	if err != nil || got != "ap2" {
		t.Errorf("Select = %v, %v; want ap2", got, err)
	}
}

func TestSelectBalanceGuardOverridesSociality(t *testing.T) {
	// ap2 has no friends but is far above the least-loaded AP: the
	// balance guard forbids it, so u lands next to their friend on ap1.
	idx := mapIndex{pair("u", "w"): 0.9}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := domainViews(t, []wlan.APView{{ID: "ap1", LoadBps: 10}, {ID: "ap2", LoadBps: 500}},
		[]member{{"w", 5}}, []member{{"x", 5}})
	got, err := s.Select(wlan.Request{User: "u", DemandBps: 5}, aps)
	if err != nil || got != "ap1" {
		t.Errorf("Select = %v, %v; want ap1 (guard)", got, err)
	}
}

func TestSelectFallsBackToLLFOnTies(t *testing.T) {
	s, err := NewSelector(mapIndex{}, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := domainViews(t, []wlan.APView{{ID: "ap1", LoadBps: 100}, {ID: "ap2", LoadBps: 10}},
		[]member{{"a", 1}}, []member{{"b", 1}})
	// No social ties anywhere: both costs 0, LLF picks ap2.
	got, err := s.Select(wlan.Request{User: "u"}, aps)
	if err != nil || got != "ap2" {
		t.Errorf("Select = %v, %v; want ap2 (LLF fallback)", got, err)
	}
}

func TestSelectRespectsCapacity(t *testing.T) {
	idx := mapIndex{pair("u", "w"): 0.9}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := domainViews(t, []wlan.APView{
		{ID: "full", CapacityBps: 100, LoadBps: 99},  // socially free but full
		{ID: "roomy", CapacityBps: 100, LoadBps: 10}, // has the friend but has room
	}, []member{{"x", 50}}, []member{{"w", 50}})
	got, err := s.Select(wlan.Request{User: "u", DemandBps: 50}, aps)
	if err != nil || got != "roomy" {
		t.Errorf("Select = %v, %v; want roomy (capacity constraint)", got, err)
	}
}

func TestSelectAllInfeasibleFallsBack(t *testing.T) {
	s, err := NewSelector(mapIndex{}, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := []wlan.APView{
		{ID: "a", CapacityBps: 10, LoadBps: 9},
		{ID: "b", CapacityBps: 10, LoadBps: 5},
	}
	got, err := s.Select(wlan.Request{User: "u", DemandBps: 50}, aps)
	if err != nil || got != "b" {
		t.Errorf("Select = %v, %v; want b (least loaded despite overload)", got, err)
	}
}

func TestSelectNoAPs(t *testing.T) {
	s, _ := NewSelector(mapIndex{}, SelectorConfig{})
	if _, err := s.Select(wlan.Request{User: "u"}, nil); err == nil {
		t.Error("no APs should error")
	}
	if _, err := s.SelectBatch([]wlan.Request{{User: "u"}}, nil); err == nil {
		t.Error("no APs should error in batch")
	}
}

func TestSelectBatchDispersesClique(t *testing.T) {
	// Three mutually-tight users (a clique) and three APs: each must land
	// on a different AP.
	idx := mapIndex{
		pair("a", "b"): 0.8,
		pair("b", "c"): 0.8,
		pair("a", "c"): 0.8,
	}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := []wlan.APView{
		{ID: "ap1"}, {ID: "ap2"}, {ID: "ap3"},
	}
	reqs := []wlan.Request{
		{User: "a", DemandBps: 10},
		{User: "b", DemandBps: 10},
		{User: "c", DemandBps: 10},
	}
	got, err := s.SelectBatch(reqs, aps)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[trace.APID]bool{}
	for u, ap := range got {
		if seen[ap] {
			t.Errorf("clique members share AP %v: %v", ap, got)
		}
		seen[ap] = true
		_ = u
	}
	if len(got) != 3 {
		t.Errorf("assignments = %v, want 3", got)
	}
}

func TestSelectBatchCliqueLargerThanAPs(t *testing.T) {
	idx := mapIndex{
		pair("a", "b"): 0.9, pair("a", "c"): 0.9, pair("a", "d"): 0.9,
		pair("b", "c"): 0.9, pair("b", "d"): 0.9, pair("c", "d"): 0.9,
	}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := []wlan.APView{{ID: "ap1"}, {ID: "ap2"}}
	reqs := []wlan.Request{
		{User: "a", DemandBps: 10}, {User: "b", DemandBps: 10},
		{User: "c", DemandBps: 10}, {User: "d", DemandBps: 10},
	}
	got, err := s.SelectBatch(reqs, aps)
	if err != nil {
		t.Fatal(err)
	}
	// Four clique members over two APs: 2 + 2, never 3 + 1.
	counts := map[trace.APID]int{}
	for _, ap := range got {
		counts[ap]++
	}
	if counts["ap1"] != 2 || counts["ap2"] != 2 {
		t.Errorf("distribution = %v, want 2/2", counts)
	}
}

func TestSelectBatchUnrelatedUsersBalance(t *testing.T) {
	// No social edges: the batch degenerates to per-user placement that
	// keeps loads level.
	s, err := NewSelector(mapIndex{}, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := []wlan.APView{
		{ID: "ap1", LoadBps: 0},
		{ID: "ap2", LoadBps: 0},
	}
	reqs := []wlan.Request{
		{User: "a", DemandBps: 10}, {User: "b", DemandBps: 10},
		{User: "c", DemandBps: 10}, {User: "d", DemandBps: 10},
	}
	got, err := s.SelectBatch(reqs, aps)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.APID]int{}
	for _, ap := range got {
		counts[ap]++
	}
	if counts["ap1"] != 2 || counts["ap2"] != 2 {
		t.Errorf("distribution = %v, want 2/2", counts)
	}
}

func TestSelectBatchDuplicateUser(t *testing.T) {
	s, _ := NewSelector(mapIndex{}, SelectorConfig{})
	reqs := []wlan.Request{{User: "a"}, {User: "a"}}
	if _, err := s.SelectBatch(reqs, []wlan.APView{{ID: "ap1"}}); err == nil {
		t.Error("duplicate user should error")
	}
}

func TestSelectBatchEmptyReqs(t *testing.T) {
	s, _ := NewSelector(mapIndex{}, SelectorConfig{})
	got, err := s.SelectBatch(nil, []wlan.APView{{ID: "ap1"}})
	if err != nil || len(got) != 0 {
		t.Errorf("empty batch = %v, %v", got, err)
	}
}

func TestSelectBatchTwoCliques(t *testing.T) {
	// Two separate pairs; each pair must be split across APs.
	idx := mapIndex{
		pair("a1", "a2"): 0.9,
		pair("b1", "b2"): 0.9,
	}
	s, err := NewSelector(idx, SelectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aps := []wlan.APView{{ID: "ap1"}, {ID: "ap2"}}
	reqs := []wlan.Request{
		{User: "a1", DemandBps: 10}, {User: "a2", DemandBps: 10},
		{User: "b1", DemandBps: 10}, {User: "b2", DemandBps: 10},
	}
	got, err := s.SelectBatch(reqs, aps)
	if err != nil {
		t.Fatal(err)
	}
	if got["a1"] == got["a2"] {
		t.Errorf("pair a not dispersed: %v", got)
	}
	if got["b1"] == got["b2"] {
		t.Errorf("pair b not dispersed: %v", got)
	}
}

func TestDefaultSelectorConfig(t *testing.T) {
	cfg := DefaultSelectorConfig()
	if cfg.EdgeThreshold != 0.3 || cfg.BeamWidth != 64 {
		t.Errorf("DefaultSelectorConfig = %+v", cfg)
	}
}

func TestIntPow(t *testing.T) {
	tests := []struct {
		base, exp, want int
	}{
		{3, 0, 1},
		{3, 2, 9},
		{4, 5, 1024},
		{4, 6, 4096},
		{4, 7, -1}, // beyond the exhaustive limit
		{10, 10, -1},
	}
	for _, tt := range tests {
		if got := intPow(tt.base, tt.exp); got != tt.want {
			t.Errorf("intPow(%d, %d) = %d, want %d", tt.base, tt.exp, got, tt.want)
		}
	}
}

func TestSelectBatchExhaustiveMatchesWideBeam(t *testing.T) {
	// For small cliques the exhaustive path must agree with an
	// effectively-unbounded beam (they search the same space).
	idx := mapIndex{
		pair("a", "b"): 0.9, pair("a", "c"): 0.8, pair("b", "c"): 0.7,
	}
	exhaustive, err := NewSelector(idx, SelectorConfig{BeamWidth: 1}) // widened internally
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewSelector(idx, SelectorConfig{BeamWidth: 100000})
	if err != nil {
		t.Fatal(err)
	}
	aps := []wlan.APView{
		{ID: "x", LoadBps: 3}, {ID: "y", LoadBps: 7}, {ID: "z", LoadBps: 5},
	}
	reqs := []wlan.Request{
		{User: "a", DemandBps: 10},
		{User: "b", DemandBps: 20},
		{User: "c", DemandBps: 30},
	}
	got1, err := exhaustive.SelectBatch(reqs, aps)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := wide.SelectBatch(reqs, aps)
	if err != nil {
		t.Fatal(err)
	}
	for u, ap := range got1 {
		if got2[u] != ap {
			t.Errorf("user %s: exhaustive %v vs wide beam %v", u, ap, got2[u])
		}
	}
}
