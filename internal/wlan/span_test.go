package wlan_test

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestSimulateCostFollowsSessions: what a replay fires follows its
// sessions, not its span. Each arrival batch and departure fires once,
// and every report tick but the opening one follows one of them with
// more to replay, so a replay fires at most four events a session.
// conserveTrace plus one session lasting 10⁹ s, reported every 300 s,
// stays within that; a tick every 300 s of the span would be ≈ 3.3 M.
func TestSimulateCostFollowsSessions(t *testing.T) {
	tr := conserveTrace()
	tr.Sessions = append(tr.Sessions, trace.Session{
		User: "u6", AP: "a2", Controller: "c1", ConnectAt: 200, DisconnectAt: 200 + 1e9, Bytes: 1e9,
	})
	events := obs.GetCounter("eventsim.events")
	before := events.Value()
	lc := &lifecycle{make(map[event]int), make(map[event]int)}
	res, err := wlan.Simulate(tr, wlan.Config{
		SelectorFor:               func(trace.ControllerID, []trace.AP) wlan.Selector { return baseline.LLF{} },
		BatchWindowSeconds:        60,
		LoadReportIntervalSeconds: 300,
		Observer:                  lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserves(t, tr, res, lc)
	if fired, most := events.Value()-before, int64(4*len(tr.Sessions)); fired > most {
		t.Errorf("replay fired %d events, want at most %d", fired, most)
	}
}
