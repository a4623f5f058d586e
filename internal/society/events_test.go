package society

import (
	"math"
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestMakePair(t *testing.T) {
	p := MakePair("zeta", "alpha")
	if p.A != "alpha" || p.B != "zeta" {
		t.Errorf("MakePair = %+v, want canonical order", p)
	}
	if MakePair("a", "b") != MakePair("b", "a") {
		t.Error("pairs should be order-independent")
	}
}

// TestPairOther: a pair's members come back in canonical order whichever
// one is named first, and pairs order by (A, B) (Pair.Other had no caller).
func TestPairOther(t *testing.T) {
	p := MakePair("b", "a")
	if p != (Pair{"a", "b"}) || p.compare(MakePair("a", "c")) >= 0 || p.compare(MakePair("a", "b")) != 0 {
		t.Errorf("MakePair(b, a) = %+v: not canonical, or misordered against (a, c)", p)
	}
}

func TestExtractCoLeavings(t *testing.T) {
	sessions := []trace.Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 1000},
		{User: "u2", AP: "a", ConnectAt: 0, DisconnectAt: 1100}, // 100s after u1
		{User: "u3", AP: "a", ConnectAt: 0, DisconnectAt: 5000}, // far away
		{User: "u4", AP: "b", ConnectAt: 0, DisconnectAt: 1050}, // other AP
	}
	evs := ExtractCoLeavings(sessions, 300)
	if len(evs) != 1 {
		t.Fatalf("co-leavings = %+v, want exactly 1", evs)
	}
	if evs[0].Pair != MakePair("u1", "u2") || evs[0].AP != "a" || evs[0].At != 1000 {
		t.Errorf("event = %+v", evs[0])
	}
	// A wider window captures u3 too (u2@1100..u3@5000 gap 3900 > 3600;
	// u1@1000..u3@5000 gap 4000): window 4000 pairs u2-u3 and u1-u3.
	evs = ExtractCoLeavings(sessions, 4000)
	if len(evs) != 3 {
		t.Errorf("wide-window co-leavings = %d, want 3", len(evs))
	}
}

// Events come AP by AP (ids ascending), and within an AP in (time, user)
// order of the earlier leaving, whatever order the sessions arrive in.
func TestExtractCoLeavingsOrder(t *testing.T) {
	sessions := []trace.Session{
		{User: "u3", AP: "b", ConnectAt: 0, DisconnectAt: 300},
		{User: "u2", AP: "b", ConnectAt: 0, DisconnectAt: 300},
		{User: "u9", AP: "a", ConnectAt: 0, DisconnectAt: 500},
		{User: "u1", AP: "b", ConnectAt: 0, DisconnectAt: 350},
		{User: "u8", AP: "a", ConnectAt: 0, DisconnectAt: 400},
	}
	want := []CoLeaveEvent{
		{Pair: MakePair("u8", "u9"), AP: "a", At: 400},
		{Pair: MakePair("u2", "u3"), AP: "b", At: 300},
		{Pair: MakePair("u1", "u2"), AP: "b", At: 300},
		{Pair: MakePair("u1", "u3"), AP: "b", At: 300},
	}
	if got := ExtractCoLeavings(sessions, 300); !reflect.DeepEqual(got, want) {
		t.Errorf("events\n got %+v\nwant %+v", got, want)
	}
}

func TestExtractCoLeavingsSameUserExcluded(t *testing.T) {
	sessions := []trace.Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100},
		{User: "u1", AP: "a", ConnectAt: 150, DisconnectAt: 200},
	}
	if evs := ExtractCoLeavings(sessions, 300); len(evs) != 0 {
		t.Errorf("self co-leaving should be excluded, got %+v", evs)
	}
}

func TestExtractEncounters(t *testing.T) {
	sessions := []trace.Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 1000},
		{User: "u2", AP: "a", ConnectAt: 100, DisconnectAt: 900},  // 800s overlap
		{User: "u3", AP: "a", ConnectAt: 950, DisconnectAt: 2000}, // 50s with u1
		{User: "u4", AP: "b", ConnectAt: 0, DisconnectAt: 1000},   // other AP
	}
	enc := ExtractEncounters(sessions, 600)
	if len(enc) != 1 {
		t.Fatalf("encounters = %+v, want 1", enc)
	}
	if enc[MakePair("u1", "u2")] != 1 {
		t.Errorf("u1-u2 encounters = %d, want 1", enc[MakePair("u1", "u2")])
	}
	// Lower threshold admits the 50-second overlap.
	enc = ExtractEncounters(sessions, 30)
	if enc[MakePair("u1", "u3")] != 1 {
		t.Errorf("u1-u3 should encounter with low threshold: %+v", enc)
	}
}

func TestExtractEncountersRepeats(t *testing.T) {
	// Two separate overlapping session pairs count as two encounters.
	sessions := []trace.Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100},
		{User: "u2", AP: "a", ConnectAt: 0, DisconnectAt: 100},
		{User: "u1", AP: "a", ConnectAt: 500, DisconnectAt: 600},
		{User: "u2", AP: "a", ConnectAt: 500, DisconnectAt: 600},
	}
	enc := ExtractEncounters(sessions, 50)
	if enc[MakePair("u1", "u2")] != 2 {
		t.Errorf("encounters = %d, want 2", enc[MakePair("u1", "u2")])
	}
}

func TestExtractEncountersSameUserExcluded(t *testing.T) {
	sessions := []trace.Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100},
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100},
	}
	if enc := ExtractEncounters(sessions, 10); len(enc) != 0 {
		t.Errorf("self encounters should be excluded: %+v", enc)
	}
}

func TestCoLeaveFractionPerUser(t *testing.T) {
	sessions := []trace.Session{
		// u1 leaves twice; once together with u2, once alone.
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 1000},
		{User: "u2", AP: "a", ConnectAt: 0, DisconnectAt: 1010},
		{User: "u1", AP: "a", ConnectAt: 5000, DisconnectAt: 9000},
		// u3 always leaves alone.
		{User: "u3", AP: "b", ConnectAt: 0, DisconnectAt: 500},
	}
	fr := CoLeaveFractionPerUser(sessions, 300)
	if math.Abs(fr["u1"]-0.5) > 1e-9 {
		t.Errorf("u1 fraction = %v, want 0.5", fr["u1"])
	}
	if fr["u2"] != 1 {
		t.Errorf("u2 fraction = %v, want 1", fr["u2"])
	}
	if fr["u3"] != 0 {
		t.Errorf("u3 fraction = %v, want 0", fr["u3"])
	}
}
