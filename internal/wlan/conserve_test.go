package wlan_test

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// FuzzSimulateConserves replays every trace the loader accepts four
// ways — LLF and S³ (over a small model of the trace's users), each with
// live load and with 300 s reports — and checks what a replay owes its
// trace: every session is placed exactly once, every placement departs
// (seen through Config.Observer, at the session's own end, from the AP
// it was placed on), and the served bytes are the trace's. A trace the
// simulator may refuse (no sessions, or a session of a controller
// without APs) must be refused, and nothing else may be.
func FuzzSimulateConserves(f *testing.F) {
	for _, tr := range []*trace.Trace{conserveTrace(), smallCampus(f)} {
		var buf bytes.Buffer
		if err := trace.WriteJSONLines(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := trace.ReadJSONLines(strings.NewReader(input))
		if err != nil {
			return // the door refused it
		}
		model := socialModel(t, tr)
		for _, policy := range []struct {
			name string
			new  func() wlan.Selector
		}{
			{"LLF", func() wlan.Selector { return baseline.LLF{} }},
			{"S3", func() wlan.Selector {
				sel, err := core.NewSelector(model, core.DefaultSelectorConfig())
				if err != nil {
					t.Fatal(err)
				}
				return sel
			}},
		} {
			for _, every := range []int64{0, 300} {
				obs := &lifecycle{make(map[event]int), make(map[event]int)}
				res, err := wlan.Simulate(tr, wlan.Config{
					SelectorFor:               func(trace.ControllerID, []trace.AP) wlan.Selector { return policy.new() },
					BatchWindowSeconds:        60,
					LoadReportIntervalSeconds: every,
					Observer:                  obs,
				})
				if err != nil {
					if simulatable(tr) {
						t.Fatalf("%s, reports every %d s: refused a simulatable trace: %v", policy.name, every, err)
					}
					continue
				}
				if !simulatable(tr) {
					t.Fatalf("%s, reports every %d s: replayed a trace it must refuse", policy.name, every)
				}
				checkConserves(t, tr, res, obs)
			}
		}
	})
}

// checkConserves holds a replay of tr to its trace and its observer.
func checkConserves(t *testing.T, tr *trace.Trace, res *wlan.Result, obs *lifecycle) {
	t.Helper()
	want := make(map[trace.Session]int, len(tr.Sessions))
	var wantBytes, gotBytes int64
	for _, s := range tr.Sessions {
		want[s]++
		wantBytes += s.Bytes
	}
	got := make(map[trace.Session]int, len(tr.Sessions))
	connects, departures := make(map[event]int), make(map[event]int)
	for _, c := range res.Controllers() {
		for _, a := range res.Domains[c].Assigned {
			got[a.Session]++
			gotBytes += a.Session.Bytes
			connects[event{a.Session.User, a.AP, a.Session.ConnectAt}]++
			departures[event{a.Session.User, a.AP, a.Session.DisconnectAt}]++
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%s: placed %d sessions, not each of the trace's %d exactly once", res.Policy, total(got), len(tr.Sessions))
	}
	if gotBytes != wantBytes {
		t.Fatalf("%s: served %d bytes, the trace %d", res.Policy, gotBytes, wantBytes)
	}
	if !maps.Equal(obs.connects, connects) {
		t.Fatalf("%s: observer saw %d connects, not the %d placements", res.Policy, total(obs.connects), total(connects))
	}
	if !maps.Equal(obs.departures, departures) {
		t.Fatalf("%s: observer saw %d departures, not one per placement at its session's end (%d)",
			res.Policy, total(obs.departures), total(departures))
	}
}

// simulatable reports whether Simulate must replay tr: it has sessions,
// and every session's controller has an AP.
func simulatable(tr *trace.Trace) bool {
	controllers := tr.Topology.Controllers()
	return len(tr.Sessions) > 0 && !slices.ContainsFunc(tr.Sessions, func(s trace.Session) bool {
		return !slices.Contains(controllers, s.Controller)
	})
}

// socialModel is a small model over tr's users: consecutive users in id
// order are friends (θ 0.75 + the prior), and users alternate between two
// types whose prior alone crosses no threshold.
func socialModel(t *testing.T, tr *trace.Trace) *society.Model {
	users := tr.Users()
	types := make(map[trace.UserID]int, len(users))
	var pairs []society.PairStat
	for i, u := range users {
		types[u] = i % 2
		if i%2 == 1 {
			pairs = append(pairs, society.PairStat{Pair: society.MakePair(users[i-1], u),
				Encounters: 4, CoLeaves: 3, Prob: 0.75, Supported: true})
		}
	}
	m, err := society.NewModel(pairs, types, [][]float64{{0.5, 0.1}, {0.1, 0.5}}, nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// event is a placement's connect or departure as the observer sees it.
type event struct {
	user trace.UserID
	ap   trace.APID
	at   int64
}

// lifecycle counts the simulator's observer events.
type lifecycle struct{ connects, departures map[event]int }

func (l *lifecycle) Connect(u trace.UserID, ap trace.APID, ts int64) { l.connects[event{u, ap, ts}]++ }

func (l *lifecycle) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	l.departures[event{u, ap, ts}]++
	return nil
}

func total[K comparable](m map[K]int) (n int) {
	for _, c := range m {
		n += c
	}
	return n
}

// conserveTrace is a two-controller trace with what a replay must get
// right: co-arrivals inside the batch window, a user with two sessions
// in one batch, a session of no length, an AP of no capacity, friends
// arriving together and a session outliving every other.
func conserveTrace() *trace.Trace {
	return &trace.Trace{
		Topology: trace.Topology{APs: []trace.AP{
			{ID: "a1", Controller: "c1", CapacityBps: 1000},
			{ID: "a2", Controller: "c1", CapacityBps: 1000},
			{ID: "a3", Controller: "c1"},
			{ID: "b1", Controller: "c2", CapacityBps: 500},
		}},
		Sessions: []trace.Session{
			{User: "u1", AP: "a1", Controller: "c1", ConnectAt: 100, DisconnectAt: 900, Bytes: 8000},
			{User: "u2", AP: "a1", Controller: "c1", ConnectAt: 110, DisconnectAt: 905, Bytes: 4000},
			{User: "u2", AP: "a2", Controller: "c1", ConnectAt: 130, DisconnectAt: 130},
			{User: "u3", AP: "a2", Controller: "c1", ConnectAt: 150, DisconnectAt: 5000, Bytes: 100},
			{User: "u4", AP: "a3", Controller: "c1", ConnectAt: 400, DisconnectAt: 700, Bytes: 30000},
			{User: "u1", AP: "b1", Controller: "c2", ConnectAt: 1000, DisconnectAt: 1600, Bytes: 600},
			{User: "u5", AP: "b1", Controller: "c2", ConnectAt: 1000, DisconnectAt: 1200, Bytes: 200},
		},
	}
}

// smallCampus is a two-day generated campus, its flows dropped (the
// simulator reads sessions only).
func smallCampus(f *testing.F) *trace.Trace {
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.Buildings, cfg.APsPerBuilding, cfg.Days = 20, 2, 2, 2
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	tr.Flows = nil
	return tr
}
