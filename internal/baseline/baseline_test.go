package baseline

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func views() []wlan.APView {
	return []wlan.APView{
		wlan.APView{ID: "ap1", LoadBps: 100, RSSI: -60}.WithMembers([]trace.UserID{"a", "b"}, nil),
		wlan.APView{ID: "ap2", LoadBps: 50, RSSI: -40}.WithMembers([]trace.UserID{"c"}, nil),
		{ID: "ap3", LoadBps: 200, RSSI: -80},
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
	got, err := StrongestRSSI{}.Select(wlan.Request{}, views())
	if err != nil || got != "ap2" {
		t.Errorf("StrongestRSSI = %v, %v; want ap2 (-40 dBm)", got, err)
	}
	// Deterministic tie-break by ID.
	aps := []wlan.APView{
		{ID: "z", RSSI: -50},
		{ID: "a", RSSI: -50},
	}
	got, _ = StrongestRSSI{}.Select(wlan.Request{}, aps)
	if got != "a" {
		t.Errorf("RSSI tie-break = %v, want a", got)
	}
	if _, err := (StrongestRSSI{}).Select(wlan.Request{}, nil); err == nil {
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
