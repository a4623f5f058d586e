package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func sampleTopology() Topology {
	return Topology{APs: []AP{
		{ID: "ap-1", Controller: "ctl-A", Building: "B1", CapacityBps: 1e6},
		{ID: "ap-2", Controller: "ctl-A", Building: "B1", CapacityBps: 1e6},
		{ID: "ap-3", Controller: "ctl-B", Building: "B2", CapacityBps: 2e6},
	}}
}

func TestSessionBasics(t *testing.T) {
	s := Session{User: "u1", AP: "ap-1", ConnectAt: 100, DisconnectAt: 200, Bytes: 1000}
	if s.Duration() != 100 {
		t.Errorf("Duration = %d, want 100", s.Duration())
	}
	if s.Throughput() != 10 {
		t.Errorf("Throughput = %v, want 10", s.Throughput())
	}
	zero := Session{User: "u1", AP: "a", ConnectAt: 5, DisconnectAt: 5, Bytes: 9}
	if zero.Throughput() != 0 {
		t.Errorf("zero-duration throughput = %v, want 0", zero.Throughput())
	}
}

func TestSessionOverlap(t *testing.T) {
	a := Session{ConnectAt: 100, DisconnectAt: 200}
	tests := []struct {
		name string
		b    Session
		want int64
	}{
		{"identical", Session{ConnectAt: 100, DisconnectAt: 200}, 100},
		{"partial", Session{ConnectAt: 150, DisconnectAt: 250}, 50},
		{"contained", Session{ConnectAt: 120, DisconnectAt: 130}, 10},
		{"disjoint", Session{ConnectAt: 300, DisconnectAt: 400}, 0},
		{"touching", Session{ConnectAt: 200, DisconnectAt: 300}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Overlap(tt.b); got != tt.want {
				t.Errorf("Overlap = %d, want %d", got, tt.want)
			}
			if got := tt.b.Overlap(a); got != tt.want {
				t.Errorf("Overlap should be symmetric")
			}
		})
	}
}

func TestSessionValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Session
		wantErr bool
	}{
		{"ok", Session{User: "u", AP: "a", ConnectAt: 1, DisconnectAt: 2}, false},
		{"no user", Session{AP: "a", ConnectAt: 1, DisconnectAt: 2}, true},
		{"no ap", Session{User: "u", ConnectAt: 1, DisconnectAt: 2}, true},
		{"reversed", Session{User: "u", AP: "a", ConnectAt: 2, DisconnectAt: 1}, true},
		{"negative bytes", Session{User: "u", AP: "a", ConnectAt: 1, DisconnectAt: 2, Bytes: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestFlowValidate(t *testing.T) {
	ok := Flow{User: "u", Start: 1, End: 2, Proto: "tcp", DstPort: 80, Bytes: 10}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
	bad := []Flow{
		{Start: 1, End: 2},                            // no user
		{User: "u", Start: 2, End: 1},                 // reversed
		{User: "u", Start: 1, End: 2, Bytes: -1},      // negative
		{User: "u", Start: 1, End: 2, DstPort: 70000}, // port range
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad flow %d accepted", i)
		}
	}
}

func TestTopologyQueries(t *testing.T) {
	topo := sampleTopology()
	ctls := topo.Controllers()
	if len(ctls) != 2 || ctls[0] != "ctl-A" || ctls[1] != "ctl-B" {
		t.Errorf("Controllers = %v", ctls)
	}
	aps := topo.APsOf("ctl-A")
	if len(aps) != 2 || aps[0].ID != "ap-1" || aps[1].ID != "ap-2" {
		t.Errorf("APsOf(ctl-A) = %v", aps)
	}
	if got := topo.APsOf("nope"); len(got) != 0 {
		t.Errorf("APsOf(nope) = %v", got)
	}
	if aps := topo.APsOf("ctl-B"); len(aps) != 1 || aps[0].ID != "ap-3" {
		t.Errorf("APsOf(ctl-B) = %v", aps)
	}
}

func TestTraceSortAndRange(t *testing.T) {
	tr := &Trace{Sessions: []Session{
		{User: "b", AP: "a", ConnectAt: 200, DisconnectAt: 400},
		{User: "a", AP: "a", ConnectAt: 100, DisconnectAt: 150},
		{User: "a", AP: "b", ConnectAt: 200, DisconnectAt: 500},
	}}
	tr.SortSessions()
	if tr.Sessions[0].User != "a" || tr.Sessions[0].ConnectAt != 100 {
		t.Errorf("sort order wrong: %+v", tr.Sessions)
	}
	if tr.Sessions[1].User != "a" || tr.Sessions[2].User != "b" {
		t.Errorf("tie-break wrong: %+v", tr.Sessions)
	}
	start, end := tr.TimeRange()
	if start != 100 || end != 500 {
		t.Errorf("TimeRange = %d, %d; want 100, 500", start, end)
	}
	var empty Trace
	if s, e := empty.TimeRange(); s != 0 || e != 0 {
		t.Error("empty TimeRange should be 0, 0")
	}
}

// TestSortSessionsMatchesSortFunc holds SortSessions' key sort to what
// slices.SortFunc does to the sessions themselves with the (ConnectAt,
// User, AP) comparator, the order among ties included: over lengths that
// cross pdqsort's insertion-sort cutoff, few distinct times, users and APs,
// and sessions that tie on all three but differ in their bytes.
func TestSortSessionsMatchesSortFunc(t *testing.T) {
	byConnect := func(a, b Session) int {
		if c := cmp.Compare(a.ConnectAt, b.ConnectAt); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.AP, b.AP))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		times := 1 + rng.Intn(n+1)
		sessions := make([]Session, n)
		for i := range sessions {
			at := int64(rng.Intn(times))
			sessions[i] = Session{
				User:         UserID(fmt.Sprintf("u%d", rng.Intn(4))),
				AP:           APID(fmt.Sprintf("ap%d", rng.Intn(3))),
				ConnectAt:    at,
				DisconnectAt: at + 10,
				Bytes:        int64(i), // the place it was drawn at
			}
		}
		want := slices.Clone(sessions)
		slices.SortFunc(want, byConnect)
		tr := &Trace{Sessions: sessions}
		tr.SortSessions()
		if !slices.Equal(tr.Sessions, want) {
			t.Fatalf("trial %d (%d sessions): SortSessions differs from slices.SortFunc", trial, n)
		}
	}
}

func TestTraceUsersAndGrouping(t *testing.T) {
	tr := &Trace{Sessions: []Session{
		{User: "u2", AP: "a", Controller: "c1", ConnectAt: 1, DisconnectAt: 2},
		{User: "u1", AP: "a", Controller: "c1", ConnectAt: 1, DisconnectAt: 2},
		{User: "u1", AP: "b", Controller: "c2", ConnectAt: 3, DisconnectAt: 4},
	}}
	users := tr.Users()
	if len(users) != 2 || users[0] != "u1" || users[1] != "u2" {
		t.Errorf("Users = %v", users)
	}
	c1 := tr.SessionsOfController("c1")
	if len(c1) != 2 {
		t.Errorf("SessionsOfController(c1) = %v", c1)
	}
}

func TestSplitAt(t *testing.T) {
	tr := &Trace{
		Topology: sampleTopology(),
		Sessions: []Session{
			{User: "u", AP: "ap-1", ConnectAt: 10, DisconnectAt: 20},
			{User: "u", AP: "ap-1", ConnectAt: 100, DisconnectAt: 120},
		},
		Flows: []Flow{
			{User: "u", Start: 5, End: 6},
			{User: "u", Start: 105, End: 106},
		},
	}
	train, test := tr.SplitAt(50)
	if len(train.Sessions) != 1 || len(test.Sessions) != 1 {
		t.Errorf("session split = %d/%d, want 1/1",
			len(train.Sessions), len(test.Sessions))
	}
	if len(train.Flows) != 1 || len(test.Flows) != 1 {
		t.Errorf("flow split = %d/%d, want 1/1", len(train.Flows), len(test.Flows))
	}
	if len(train.Topology.APs) != 3 || len(test.Topology.APs) != 3 {
		t.Error("topology should be carried to both splits")
	}
}

// splitTrace is eight sessions and eight flows in time order, three of each
// sharing the timestamp 100.
func splitTrace() *Trace {
	tr := &Trace{Topology: sampleTopology()}
	for i, at := range []int64{10, 40, 100, 100, 100, 130, 130, 170} {
		u := UserID(fmt.Sprintf("u%d", i))
		tr.Sessions = append(tr.Sessions, Session{User: u, AP: "ap-1", ConnectAt: at, DisconnectAt: at + 50})
		tr.Flows = append(tr.Flows, Flow{User: u, Start: at, End: at + 5, Proto: "tcp"})
	}
	return tr
}

// splitByFilter is SplitAt as it was first written: two filters, in order.
func splitByFilter(tr *Trace, cut int64) (train, test *Trace) {
	train, test = &Trace{Topology: tr.Topology}, &Trace{Topology: tr.Topology}
	for _, s := range tr.Sessions {
		if s.ConnectAt < cut {
			train.Sessions = append(train.Sessions, s)
		} else {
			test.Sessions = append(test.Sessions, s)
		}
	}
	for _, f := range tr.Flows {
		if f.Start < cut {
			train.Flows = append(train.Flows, f)
		} else {
			test.Flows = append(test.Flows, f)
		}
	}
	return train, test
}

func TestSplitAtOrderedAndShuffled(t *testing.T) {
	ordered := splitTrace()
	shuffled := splitTrace()
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(shuffled.Sessions), func(i, j int) {
		shuffled.Sessions[i], shuffled.Sessions[j] = shuffled.Sessions[j], shuffled.Sessions[i]
	})
	rng.Shuffle(len(shuffled.Flows), func(i, j int) {
		shuffled.Flows[i], shuffled.Flows[j] = shuffled.Flows[j], shuffled.Flows[i]
	})
	byConnect := func(a, b Session) int { return cmp.Compare(a.ConnectAt, b.ConnectAt) }
	byStart := func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) }
	if slices.IsSortedFunc(shuffled.Sessions, byConnect) || slices.IsSortedFunc(shuffled.Flows, byStart) {
		t.Fatal("the shuffle left a slice in time order; pick another seed")
	}
	cuts := []struct {
		name  string
		cut   int64
		train int
	}{
		{"before the first record", 5, 0},
		{"after the last record", 171, 8},
		{"on a shared timestamp", 100, 2}, // the three records at 100 go to the test half
		{"between records", 101, 5},
	}
	for _, tr := range []*Trace{ordered, shuffled} {
		whole, _ := splitByFilter(tr, math.MaxInt64) // a copy of everything
		for _, c := range cuts {
			train, test := tr.SplitAt(c.cut)
			wantTrain, wantTest := splitByFilter(tr, c.cut)
			if len(train.Sessions) != c.train || len(train.Flows) != c.train {
				t.Errorf("%s: %d sessions and %d flows before the cut, want %d of each",
					c.name, len(train.Sessions), len(train.Flows), c.train)
			}
			if !slices.Equal(train.Sessions, wantTrain.Sessions) || !slices.Equal(test.Sessions, wantTest.Sessions) {
				t.Errorf("%s: sessions %v | %v, want %v | %v", c.name,
					train.Sessions, test.Sessions, wantTrain.Sessions, wantTest.Sessions)
			}
			if !slices.Equal(train.Flows, wantTrain.Flows) || !slices.Equal(test.Flows, wantTest.Flows) {
				t.Errorf("%s: flows %v | %v, want %v | %v", c.name,
					train.Flows, test.Flows, wantTrain.Flows, wantTest.Flows)
			}
			if len(train.Topology.APs) != 3 || len(test.Topology.APs) != 3 {
				t.Errorf("%s: topology not carried to both halves", c.name)
			}
			// Whether view or copy, a half is clamped to its length: an
			// append reallocates, so it reaches neither the other half
			// nor the receiver.
			if cap(train.Sessions) != len(train.Sessions) || cap(train.Flows) != len(train.Flows) ||
				cap(test.Sessions) != len(test.Sessions) || cap(test.Flows) != len(test.Flows) {
				t.Errorf("%s: a half has spare capacity", c.name)
			}
			_ = append(train.Sessions, Session{User: "intruder", ConnectAt: -1})
			_ = append(train.Flows, Flow{User: "intruder", Start: -1})
			if !slices.Equal(test.Sessions, wantTest.Sessions) || !slices.Equal(test.Flows, wantTest.Flows) {
				t.Errorf("%s: appending to the training half changed the test half", c.name)
			}
			if !slices.Equal(tr.Sessions, whole.Sessions) || !slices.Equal(tr.Flows, whole.Flows) {
				t.Fatalf("%s: appending to the training half changed the receiver", c.name)
			}
		}
	}
}

// TestSplitAtSharesOrderedSlices pins what SplitAt does per slice: the one in
// time order is cut in place (its halves are the receiver's storage), the
// one out of order is copied — whichever of sessions and flows that is.
func TestSplitAtSharesOrderedSlices(t *testing.T) {
	for _, mixed := range []struct {
		name               string
		sessionsOutOfOrder bool
	}{{"sessions ordered, flows not", false}, {"flows ordered, sessions not", true}} {
		tr := splitTrace()
		if mixed.sessionsOutOfOrder {
			tr.Sessions[0], tr.Sessions[7] = tr.Sessions[7], tr.Sessions[0]
		} else {
			tr.Flows[0], tr.Flows[7] = tr.Flows[7], tr.Flows[0]
		}
		train, test := tr.SplitAt(100)
		wantTrain, wantTest := splitByFilter(tr, 100)
		if !slices.Equal(train.Sessions, wantTrain.Sessions) || !slices.Equal(test.Sessions, wantTest.Sessions) ||
			!slices.Equal(train.Flows, wantTrain.Flows) || !slices.Equal(test.Flows, wantTest.Flows) {
			t.Errorf("%s: halves differ from the two filters", mixed.name)
		}
		sessionsShared := &train.Sessions[0] == &tr.Sessions[0] && &test.Sessions[0] == &tr.Sessions[len(train.Sessions)]
		flowsShared := &train.Flows[0] == &tr.Flows[0] && &test.Flows[0] == &tr.Flows[len(train.Flows)]
		if sessionsShared == mixed.sessionsOutOfOrder || flowsShared != mixed.sessionsOutOfOrder {
			t.Errorf("%s: sessions shared = %v, flows shared = %v", mixed.name, sessionsShared, flowsShared)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{
		Topology: sampleTopology(),
		Sessions: []Session{{User: "u", AP: "ap-1", Controller: "ctl-A", ConnectAt: 1, DisconnectAt: 2}},
		Flows:    []Flow{{User: "u", Start: 1, End: 2, Proto: "tcp"}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	wrongController := &Trace{
		Topology: sampleTopology(),
		Sessions: []Session{{User: "u", AP: "ap-1", Controller: "ctl-B", ConnectAt: 1, DisconnectAt: 2}},
	}
	if err := wrongController.Validate(); err == nil || !strings.Contains(err.Error(), "session 0: controller ctl-B, but AP ap-1 is on ctl-A") {
		t.Errorf("session on another AP's controller: err = %v", err)
	}
	unknownAP := &Trace{
		Topology: sampleTopology(),
		Sessions: []Session{{User: "u", AP: "ghost", ConnectAt: 1, DisconnectAt: 2}},
	}
	if err := unknownAP.Validate(); err == nil {
		t.Error("unknown AP should be rejected")
	}
	dupAP := &Trace{Topology: Topology{APs: []AP{{ID: "x"}, {ID: "x"}}}}
	if err := dupAP.Validate(); err == nil {
		t.Error("duplicate AP should be rejected")
	}
	negCap := &Trace{Topology: Topology{APs: []AP{{ID: "x", CapacityBps: -1}}}}
	if err := negCap.Validate(); err == nil {
		t.Error("negative capacity should be rejected")
	}
}

func TestTimeHelpers(t *testing.T) {
	const epoch = 1_000_000
	if d := DayIndex(epoch, epoch+86400*3+5); d != 3 {
		t.Errorf("DayIndex = %d, want 3", d)
	}
	// The second before the epoch is 23:59:59 of day −1, not of day 0.
	if d, s, h := DayIndex(epoch, epoch-1), SecondsIntoDay(epoch, epoch-1), HourOfDay(epoch, epoch-1); d != -1 || s != 86399 || h != 23 {
		t.Errorf("epoch−1: DayIndex %d, SecondsIntoDay %d, HourOfDay %d; want −1, 86399, 23", d, s, h)
	}
	if d := DayIndex(epoch, epoch-86400); d != -1 {
		t.Errorf("DayIndex(epoch − 1 day) = %d, want −1", d)
	}
	if d := DayIndex(epoch, epoch-86401); d != -2 {
		t.Errorf("DayIndex(epoch − 1 day − 1 s) = %d, want −2", d)
	}
	if s := SecondsIntoDay(epoch, epoch+86400+7200); s != 7200 {
		t.Errorf("SecondsIntoDay = %d, want 7200", s)
	}
	if h := HourOfDay(epoch, epoch+86400*2+3600*13+55); h != 13 {
		t.Errorf("HourOfDay = %d, want 13", h)
	}
	if got := FormatTime(0); got != "1970-01-01 00:00:00" {
		t.Errorf("FormatTime(0) = %q", got)
	}
}
