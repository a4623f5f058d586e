package wlan

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// recObs records every lifecycle event the simulator emits.
type recObs struct {
	connects    []lifecycleRec
	disconnects []lifecycleRec
}

type lifecycleRec struct {
	u  trace.UserID
	ap trace.APID
	ts int64
}

func (r *recObs) Connect(u trace.UserID, ap trace.APID, ts int64) {
	r.connects = append(r.connects, lifecycleRec{u, ap, ts})
}

func (r *recObs) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	r.disconnects = append(r.disconnects, lifecycleRec{u, ap, ts})
	return nil
}

func TestSimulateObserverSeesLifecycle(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	tr.Sessions = []trace.Session{
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 1000, Bytes: 100},
		{User: "u2", AP: "ap1", Controller: "c1", ConnectAt: 10, DisconnectAt: 800, Bytes: 100},
	}
	obs := &recObs{}
	if _, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
		Observer:    obs,
	}); err != nil {
		t.Fatal(err)
	}
	if len(obs.connects) != 2 || len(obs.disconnects) != 2 {
		t.Fatalf("events = %d connects, %d disconnects, want 2/2",
			len(obs.connects), len(obs.disconnects))
	}
	// Connects carry the trace connect times; the chosen (not the
	// original) AP is reported.
	if obs.connects[0] != (lifecycleRec{"u1", "ap1", 0}) {
		t.Errorf("connect[0] = %+v", obs.connects[0])
	}
	if obs.connects[1] != (lifecycleRec{"u2", "ap2", 10}) {
		t.Errorf("connect[1] = %+v (LLF should have spread to ap2)", obs.connects[1])
	}
	// Departures fire in event order: u2 at 800, then u1 at 1000.
	if obs.disconnects[0] != (lifecycleRec{"u2", "ap2", 800}) {
		t.Errorf("disconnect[0] = %+v", obs.disconnects[0])
	}
	if obs.disconnects[1] != (lifecycleRec{"u1", "ap1", 1000}) {
		t.Errorf("disconnect[1] = %+v", obs.disconnects[1])
	}
}

// TestSimulateFeedsIncrementalEngine replays a co-leaving pair through
// the simulator into a live engine: the same wiring an experiment uses
// to learn sociality from the replay it is scoring.
func TestSimulateFeedsIncrementalEngine(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	for i := 0; i < 3; i++ {
		base := int64(i * 10000)
		tr.Sessions = append(tr.Sessions,
			trace.Session{User: "u1", AP: "ap1", Controller: "c1",
				ConnectAt: base, DisconnectAt: base + 3600, Bytes: 100},
			trace.Session{User: "u2", AP: "ap1", Controller: "c1",
				ConnectAt: base, DisconnectAt: base + 3650, Bytes: 100},
		)
	}
	cfg := incremental.DefaultConfig()
	cfg.Society.MinEncounters = 1
	eng := incremental.New(cfg)
	if _, err := Simulate(tr, Config{
		// Pin everyone to ap1 so the pair co-resides as in the trace.
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return fixed{ap: "ap1"} },
		Observer:    eng,
	}); err != nil {
		t.Fatal(err)
	}
	eng.Refresh()
	if got := eng.Index("u1", "u2"); got != 1.0 {
		t.Errorf("learned θ(u1,u2) = %v, want 1.0", got)
	}
	if s := eng.Snapshot(); s.Users != 2 || s.Edges != 1 {
		t.Errorf("snapshot = %d users, %d edges; want 2/1", s.Users, s.Edges)
	}
}
