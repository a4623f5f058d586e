package baseline

import (
	"fmt"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func views() []wlan.APView {
	return []wlan.APView{
		wlan.APView{ID: "ap1", LoadBps: 100}.WithMembers([]trace.UserID{"a", "b"}, nil),
		wlan.APView{ID: "ap2", LoadBps: 50}.WithMembers([]trace.UserID{"c"}, nil),
		{ID: "ap3", LoadBps: 200},
	}
}

func TestLLF(t *testing.T) {
	got, err := LLF{}.Select(wlan.Request{}, views())
	if err != nil || got != "ap2" {
		t.Errorf("LLF = %v, %v; want ap2", got, err)
	}
	if _, err := (LLF{}).Select(wlan.Request{}, nil); err == nil {
		t.Error("empty APs should error")
	}
	if (LLF{}).Name() == "" {
		t.Error("name empty")
	}
}

func TestLLFTieBreak(t *testing.T) {
	aps := []wlan.APView{
		wlan.APView{ID: "b", LoadBps: 10}.WithMembers([]trace.UserID{"x"}, nil),
		wlan.APView{ID: "a", LoadBps: 10}.WithMembers([]trace.UserID{"y"}, nil),
	}
	got, err := LLF{}.Select(wlan.Request{}, aps)
	if err != nil || got != "a" {
		t.Errorf("tie-break = %v, want a", got)
	}
	// User count breaks the load tie first.
	aps = []wlan.APView{
		wlan.APView{ID: "a", LoadBps: 10}.WithMembers([]trace.UserID{"x", "y"}, nil),
		wlan.APView{ID: "b", LoadBps: 10}.WithMembers([]trace.UserID{"z"}, nil),
	}
	got, _ = LLF{}.Select(wlan.Request{}, aps)
	if got != "b" {
		t.Errorf("user-count tie-break = %v, want b", got)
	}
}

func TestLeastUsers(t *testing.T) {
	got, err := LeastUsers{}.Select(wlan.Request{}, views())
	if err != nil || got != "ap3" {
		t.Errorf("LeastUsers = %v, %v; want ap3", got, err)
	}
	if _, err := (LeastUsers{}).Select(wlan.Request{}, nil); err == nil {
		t.Error("empty APs should error")
	}
}

func TestStrongestRSSI(t *testing.T) {
	req := wlan.Request{User: "u"}
	signal := func(ap trace.APID) float64 { return domain.SyntheticRSSI(req.User, ap) }
	var want trace.APID
	for _, v := range views() {
		if want == "" || signal(v.ID) > signal(want) {
			want = v.ID
		}
	}
	aps := views()
	got, err := StrongestRSSI{}.Select(req, aps)
	if err != nil || got != want {
		t.Errorf("StrongestRSSI = %v, %v; want %v (%v dBm)", got, err, want, signal(want))
	}
	slices.Reverse(aps)
	if got, _ = (StrongestRSSI{}).Select(req, aps); got != want {
		t.Errorf("StrongestRSSI over the reversed views = %v, want %v", got, want)
	}
	// Deterministic tie-break by ID: two APs the user hears equally,
	// found by search, the larger ID listed first.
	var lo, hi trace.APID
	seen := make(map[float64]trace.APID)
	for i := 0; lo == ""; i++ {
		id := trace.APID(fmt.Sprintf("ap%03d", i))
		if prev, ok := seen[signal(id)]; ok {
			lo, hi = prev, id
		}
		seen[signal(id)] = id
	}
	got, _ = StrongestRSSI{}.Select(req, []wlan.APView{{ID: hi}, {ID: lo}})
	if got != lo {
		t.Errorf("RSSI tie-break between %v and %v (%v dBm) = %v, want %v", hi, lo, signal(lo), got, lo)
	}
	if _, err := (StrongestRSSI{}).Select(req, nil); err == nil {
		t.Error("empty APs should error")
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	a := NewRandom(7)
	b := NewRandom(7)
	for i := 0; i < 20; i++ {
		ga, err := a.Select(wlan.Request{}, views())
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := b.Select(wlan.Request{}, views())
		if ga != gb {
			t.Fatal("same seed should give same sequence")
		}
	}
	if _, err := NewRandom(1).Select(wlan.Request{}, nil); err == nil {
		t.Error("empty APs should error")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{}
	want := []trace.APID{"ap1", "ap2", "ap3", "ap1"}
	for i, w := range want {
		got, err := rr.Select(wlan.Request{}, views())
		if err != nil || got != w {
			t.Errorf("call %d = %v, want %v", i, got, w)
		}
	}
	if _, err := (&RoundRobin{}).Select(wlan.Request{}, nil); err == nil {
		t.Error("empty APs should error")
	}
}

func TestSelectorNames(t *testing.T) {
	names := map[string]wlan.Selector{
		"LLF":           LLF{},
		"LeastUsers":    LeastUsers{},
		"StrongestRSSI": StrongestRSSI{},
		"Random":        NewRandom(1),
		"RoundRobin":    &RoundRobin{},
	}
	for want, sel := range names {
		if got := sel.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}
