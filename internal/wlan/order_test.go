package wlan

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// byArrival is the comparator Simulate once sorted a copy of the sessions
// with: arrivalOrder must give the order slices.SortFunc with it gives,
// the order among sessions it calls equal included.
func byArrival(a, b trace.Session) int {
	return cmp.Or(cmp.Compare(a.ConnectAt, b.ConnectAt), cmp.Compare(a.Controller, b.Controller),
		cmp.Compare(a.User, b.User), cmp.Compare(a.DisconnectAt, b.DisconnectAt))
}

// TestSimulateOrderMatchesSortedCopy holds the replay's index order to the
// sorted copy it replaced, element by element, on both sides of pdqsort's
// thresholds (12 for insertion sort, 50 for the pivot choice and pattern
// breaking). Dense sessions tie on ConnectAt nearly always and fully (they
// differ only in AP and Bytes) often; sparse ones rarely tie at all.
func TestSimulateOrderMatchesSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	users := []trace.UserID{"u-2", "u-10", "u-1"}
	ctls := []trace.ControllerID{"c1", "c0"}
	for _, n := range []int{0, 1, 12, 13, 50, 1000, 10_000} {
		for _, span := range []int64{3, int64(n) + 1} {
			t.Run(fmt.Sprintf("n=%d/span=%d", n, span), func(t *testing.T) {
				sessions := make([]trace.Session, n)
				for i := range sessions {
					at := rng.Int63n(span)
					sessions[i] = trace.Session{
						User:         users[rng.Intn(len(users))],
						AP:           trace.APID(fmt.Sprintf("ap-%d", i)),
						Controller:   ctls[rng.Intn(len(ctls))],
						ConnectAt:    at,
						DisconnectAt: at + 1 + rng.Int63n(2),
						Bytes:        int64(i),
					}
				}
				want := slices.Clone(sessions)
				slices.SortFunc(want, byArrival)
				order := arrivalOrder(sessions)
				if len(order) != n {
					t.Fatalf("arrivalOrder returned %d indices, want %d", len(order), n)
				}
				for i, k := range order {
					if sessions[k] != want[i] {
						t.Fatalf("arrival %d of %d: index order gives %+v, sorted copy %+v", i, n, sessions[k], want[i])
					}
				}
				if n == 1000 && span == 3 {
					// The data must tell tie orders apart: a stable sort of
					// the same sessions comes out different.
					stable := slices.Clone(sessions)
					slices.SortStableFunc(stable, byArrival)
					if slices.Equal(stable, want) {
						t.Fatal("a stable sort orders these sessions alike; the check cannot see tie order")
					}
				}
			})
		}
	}
}

// tieLog records a replay's events in the order they fire: the observer's
// connects and departures, and the reported load each decision was shown.
type tieLog struct{ events []string }

func (l *tieLog) Connect(u trace.UserID, _ trace.APID, ts int64) {
	l.events = append(l.events, fmt.Sprintf("connect %s @%d", u, ts))
}

func (l *tieLog) Disconnect(u trace.UserID, _ trace.APID, ts int64) error {
	l.events = append(l.events, fmt.Sprintf("depart %s @%d", u, ts))
	return nil
}

func (l *tieLog) Name() string { return "tie-log" }

func (l *tieLog) Select(req Request, aps []APView) (trace.APID, error) {
	l.events = append(l.events, fmt.Sprintf("select %s sees %g", req.User, aps[0].LoadBps))
	return aps[0].ID, nil
}

// replayTies replays sessions on one AP with a 300 s report tick and
// returns what the tie log recorded.
func replayTies(t *testing.T, demand map[trace.UserID]float64, sessions []trace.Session) []string {
	t.Helper()
	tr := &trace.Trace{
		Topology: trace.Topology{APs: []trace.AP{{ID: "ap1", Controller: "c1", CapacityBps: 1e6}}},
		Sessions: sessions,
	}
	log := &tieLog{}
	if _, err := Simulate(tr, Config{
		SelectorFor:               func(trace.ControllerID, []trace.AP) Selector { return log },
		DemandFor:                 func(s trace.Session) float64 { return demand[s.User] },
		LoadReportIntervalSeconds: 300,
		Observer:                  log,
	}); err != nil {
		t.Fatal(err)
	}
	return log.events
}

func checkTies(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("replay fired\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// TestSimulateSimultaneousFIFO pins batches first and departures in
// placement order at one instant. At 600 s a batch (u-d) and three
// departures coincide; u-c, u-a and u-b were placed at 0, 100 and 200 s,
// all before the 300 s tick fired, so no tick falls between them. The
// batch fires first, before the 600 s tick too (u-d sees the 300 s
// tick's 111, not 0); the departures follow in placement order, not user
// order.
func TestSimulateSimultaneousFIFO(t *testing.T) {
	got := replayTies(t, map[trace.UserID]float64{"u-c": 1, "u-a": 10, "u-b": 100, "u-d": 1000}, []trace.Session{
		{User: "u-c", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 600},
		{User: "u-a", AP: "ap1", Controller: "c1", ConnectAt: 100, DisconnectAt: 600},
		{User: "u-b", AP: "ap1", Controller: "c1", ConnectAt: 200, DisconnectAt: 600},
		{User: "u-d", AP: "ap1", Controller: "c1", ConnectAt: 600, DisconnectAt: 800},
	})
	checkTies(t, got, []string{
		"select u-c sees 0", "connect u-c @0",
		"select u-a sees 0", "connect u-a @100",
		"select u-b sees 0", "connect u-b @200",
		"select u-d sees 111", "connect u-d @600", // the 300 s tick saw all three
		"depart u-c @600", "depart u-a @600", "depart u-b @600",
		"depart u-d @800",
	})
}

// TestSimulateTieOrder pins where a report tick falls among departures at
// its instant. At 600 s two departures and a tick coincide, all on one AP,
// with demands 1, 10 and 1000 B/s that tell the loads apart. u-b departs
// first, placed at 0 s, before the 300 s tick fired and so scheduled
// before the 600 s tick; then the tick; then u-a, placed at 400 s, after
// it. The probe at 700 s sees what the 600 s tick reported: u-a, not u-b.
func TestSimulateTieOrder(t *testing.T) {
	got := replayTies(t, map[trace.UserID]float64{"u-b": 1, "u-a": 10, "probe": 1000}, []trace.Session{
		{User: "u-b", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 600},
		{User: "u-a", AP: "ap1", Controller: "c1", ConnectAt: 400, DisconnectAt: 600},
		{User: "probe", AP: "ap1", Controller: "c1", ConnectAt: 700, DisconnectAt: 800},
	})
	checkTies(t, got, []string{
		"select u-b sees 0", "connect u-b @0",
		"select u-a sees 1", "connect u-a @400", // the 300 s tick saw u-b
		"depart u-b @600", "depart u-a @600",
		"select probe sees 10", "connect probe @700", // the 600 s tick: u-a alone
		"depart probe @800",
	})
}
