package wlan

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// llf is a minimal least-loaded selector for tests (mirrors
// internal/baseline without the import cycle risk in examples).
type llf struct{}

func (llf) Name() string { return "test-llf" }
func (llf) Select(_ Request, aps []APView) (trace.APID, error) {
	best := aps[0]
	for _, ap := range aps[1:] {
		if ap.LoadBps < best.LoadBps ||
			(ap.LoadBps == best.LoadBps && ap.ID < best.ID) {
			best = ap
		}
	}
	return best.ID, nil
}

// fixed always picks one AP.
type fixed struct{ ap trace.APID }

func (f fixed) Name() string                                 { return "fixed" }
func (f fixed) Select(Request, []APView) (trace.APID, error) { return f.ap, nil }

// batcher spreads batch members across APs round-robin and records that
// the batch path was taken.
type batcher struct {
	llf
	batches int
}

func (b *batcher) SelectBatch(reqs []Request, aps []APView) (map[trace.UserID]trace.APID, error) {
	b.batches++
	out := make(map[trace.UserID]trace.APID, len(reqs))
	for i, r := range reqs {
		out[r.User] = aps[i%len(aps)].ID
	}
	return out, nil
}

func twoAPTopology() trace.Topology {
	return trace.Topology{APs: []trace.AP{
		{ID: "ap1", Controller: "c1", CapacityBps: 1000},
		{ID: "ap2", Controller: "c1", CapacityBps: 1000},
	}}
}

func TestSimulateBalancesWithLLF(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	// Four identical users arriving in sequence: LLF alternates APs.
	for i, u := range []trace.UserID{"u1", "u2", "u3", "u4"} {
		tr.Sessions = append(tr.Sessions, trace.Session{
			User: u, AP: "ap1", Controller: "c1",
			ConnectAt: int64(i * 10), DisconnectAt: 1000, Bytes: 1000,
		})
	}
	res, err := Simulate(tr, Config{
		BinSeconds:  100,
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Domains["c1"]
	if len(d.Assigned) != 4 {
		t.Fatalf("assigned = %d, want 4", len(d.Assigned))
	}
	perAP := map[trace.APID]int{}
	for _, a := range d.Assigned {
		perAP[a.AP]++
	}
	if perAP["ap1"] != 2 || perAP["ap2"] != 2 {
		t.Errorf("placement = %v, want 2/2", perAP)
	}
	if d.Overloads != 0 {
		t.Errorf("overloads = %d, want 0", d.Overloads)
	}
	if res.Policy != "test-llf" {
		t.Errorf("policy = %q", res.Policy)
	}
}

func TestSimulateLoadSeries(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	tr.Sessions = []trace.Session{
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 200, Bytes: 200},
		{User: "u2", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 200, Bytes: 200},
	}
	res, err := Simulate(tr, Config{
		BinSeconds:  100,
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.LoadSeries("c1")
	if err != nil {
		t.Fatal(err)
	}
	// LLF splits the two users; both bins perfectly balanced.
	for i, v := range s.Values {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("bin %d balance = %v, want 1", i, v)
		}
	}
	if _, err := res.LoadSeries("nope"); err == nil {
		t.Error("unknown controller should error")
	}
}

func TestSimulateSingleAPOverload(t *testing.T) {
	tr := &trace.Trace{Topology: trace.Topology{APs: []trace.AP{
		{ID: "only", Controller: "c1", CapacityBps: 10},
	}}}
	tr.Sessions = []trace.Session{
		{User: "u1", AP: "only", Controller: "c1", ConnectAt: 0, DisconnectAt: 100, Bytes: 900},
		{User: "u2", AP: "only", Controller: "c1", ConnectAt: 10, DisconnectAt: 100, Bytes: 900},
	}
	res, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains["c1"].Overloads == 0 {
		t.Error("expected overload to be recorded")
	}
}

func TestSimulateErrors(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	tr.Sessions = []trace.Session{
		{User: "u", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 10},
	}
	if _, err := Simulate(tr, Config{}); err == nil {
		t.Error("missing SelectorFor should error")
	}
	if _, err := Simulate(&trace.Trace{Topology: twoAPTopology()}, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	}); err == nil {
		t.Error("no sessions should error")
	}
	// Unknown controller in a session.
	bad := &trace.Trace{Topology: twoAPTopology()}
	bad.Sessions = []trace.Session{
		{User: "u", AP: "x", Controller: "ghost", ConnectAt: 0, DisconnectAt: 10},
	}
	if _, err := Simulate(bad, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	}); err == nil {
		t.Error("unknown controller should error")
	}
	// Selector returning an unknown AP.
	if _, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector {
			return fixed{ap: "bogus"}
		},
	}); err == nil || !strings.Contains(err.Error(), "unknown AP") {
		t.Errorf("bogus AP should fail the simulation, got %v", err)
	}
	// A session that ends before it starts, second of its batch: placed,
	// its demand would never be released.
	backwards := &trace.Trace{Topology: twoAPTopology()}
	backwards.Sessions = []trace.Session{
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 100, DisconnectAt: 200},
		{User: "u2", AP: "ap1", Controller: "c1", ConnectAt: 100, DisconnectAt: 50},
	}
	if _, err := Simulate(backwards, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	}); err == nil || !strings.Contains(err.Error(), "session of u2 on ap1 ends (50) before it starts (100)") {
		t.Errorf("a session ending before it starts should fail the simulation, got %v", err)
	}
	// Nil selector.
	if _, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return nil },
	}); err == nil {
		t.Error("nil selector should error")
	}
	// Topology without APs.
	empty := &trace.Trace{}
	empty.Sessions = []trace.Session{
		{User: "u", AP: "a", Controller: "c", ConnectAt: 0, DisconnectAt: 1},
	}
	if _, err := Simulate(empty, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	}); err == nil {
		t.Error("empty topology should error")
	}
}

func TestSimulateBatchSelector(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	// Three users arrive at the same instant: one batch decision.
	for _, u := range []trace.UserID{"u1", "u2", "u3"} {
		tr.Sessions = append(tr.Sessions, trace.Session{
			User: u, AP: "ap1", Controller: "c1",
			ConnectAt: 100, DisconnectAt: 500, Bytes: 400,
		})
	}
	b := &batcher{}
	res, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return b },
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.batches != 1 {
		t.Errorf("batches = %d, want 1", b.batches)
	}
	perAP := map[trace.APID]int{}
	for _, a := range res.Domains["c1"].Assigned {
		perAP[a.AP]++
	}
	if perAP["ap1"] != 2 || perAP["ap2"] != 1 {
		t.Errorf("round-robin batch = %v", perAP)
	}
}

func TestSimulateBatchWindow(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	// Arrivals 30s apart: batched only when the window allows.
	tr.Sessions = []trace.Session{
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 500, Bytes: 100},
		{User: "u2", AP: "ap1", Controller: "c1", ConnectAt: 30, DisconnectAt: 500, Bytes: 100},
	}
	b := &batcher{}
	if _, err := Simulate(tr, Config{
		BatchWindowSeconds: 60,
		SelectorFor:        func(trace.ControllerID, []trace.AP) Selector { return b },
	}); err != nil {
		t.Fatal(err)
	}
	if b.batches != 1 {
		t.Errorf("batches with 60s window = %d, want 1", b.batches)
	}
	b2 := &batcher{}
	if _, err := Simulate(tr, Config{
		BatchWindowSeconds: 0,
		SelectorFor:        func(trace.ControllerID, []trace.AP) Selector { return b2 },
	}); err != nil {
		t.Fatal(err)
	}
	if b2.batches != 0 {
		t.Errorf("batches with 0s window = %d, want 0 (single arrivals)", b2.batches)
	}
}

func TestSyntheticRSSIStable(t *testing.T) {
	a := domain.SyntheticRSSI("user1", "ap1")
	b := domain.SyntheticRSSI("user1", "ap1")
	if a != b {
		t.Error("RSSI should be deterministic")
	}
	if a < -90 || a > -30 {
		t.Errorf("RSSI %v out of range", a)
	}
	// Different pairs usually differ.
	if domain.SyntheticRSSI("user1", "ap1") == domain.SyntheticRSSI("user1", "ap2") &&
		domain.SyntheticRSSI("user2", "ap1") == domain.SyntheticRSSI("user2", "ap2") {
		t.Error("suspiciously identical RSSI across APs")
	}
}

func TestAPViewHasCapacityFor(t *testing.T) {
	v := APView{CapacityBps: 100, LoadBps: 60}
	if !v.HasCapacityFor(40) {
		t.Error("exactly-full should fit")
	}
	if v.HasCapacityFor(41) {
		t.Error("over-full should not fit")
	}
	unconstrained := APView{CapacityBps: 0, LoadBps: 1e12}
	if !unconstrained.HasCapacityFor(1e12) {
		t.Error("zero capacity means unconstrained")
	}
}

func TestRunStats(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	tr.Sessions = []trace.Session{
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 0, DisconnectAt: 100, Bytes: 100},
		{User: "u2", AP: "ap1", Controller: "c1", ConnectAt: 10, DisconnectAt: 90, Bytes: 100},
		{User: "u3", AP: "ap1", Controller: "c1", ConnectAt: 200, DisconnectAt: 300, Bytes: 100},
	}
	res, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Assignments != 3 {
		t.Errorf("assignments = %d, want 3", st.Assignments)
	}
	if st.PerDomain["c1"] != 3 {
		t.Errorf("per-domain = %v", st.PerDomain)
	}
	// u1 and u2 overlap: peak concurrency 2.
	if st.PeakConcurrency != 2 {
		t.Errorf("peak concurrency = %d, want 2", st.PeakConcurrency)
	}
	if st.BusiestAPCount < 1 || st.BusiestAP == "" {
		t.Errorf("busiest AP missing: %+v", st)
	}
	if st.String() == "" {
		t.Error("String empty")
	}
}

// recorder is a BatchSelector that keeps what it was asked: every
// SelectBatch request list and every single Select. Batches go to the
// last AP, single arrivals to the first.
type recorder struct {
	batches [][]Request
	selects []Request
}

func (*recorder) Name() string { return "recorder" }
func (r *recorder) Select(req Request, aps []APView) (trace.APID, error) {
	r.selects = append(r.selects, req)
	return aps[0].ID, nil
}
func (r *recorder) SelectBatch(reqs []Request, aps []APView) (map[trace.UserID]trace.APID, error) {
	r.batches = append(r.batches, slices.Clone(reqs))
	out := make(map[trace.UserID]trace.APID, len(reqs))
	for _, req := range reqs {
		out[req.User] = aps[len(aps)-1].ID
	}
	return out, nil
}

// TestSimulateBatchExtraSessionsFollowUser pins what a user's second
// session inside one batch window does: the user joins the joint decision
// once, with the first session's demand, and the second session is placed
// on the AP the batch gave the user — Select is not asked, and the batch
// never saw the second session's demand.
func TestSimulateBatchExtraSessionsFollowUser(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	tr.Sessions = []trace.Session{
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 100, DisconnectAt: 200, Bytes: 1000},
		{User: "stranger", AP: "ap1", Controller: "c1", ConnectAt: 105, DisconnectAt: 205, Bytes: 2000},
		{User: "u1", AP: "ap1", Controller: "c1", ConnectAt: 110, DisconnectAt: 210, Bytes: 7000},
	}
	rec := &recorder{}
	res, err := Simulate(tr, Config{
		BatchWindowSeconds: 60,
		SelectorFor:        func(trace.ControllerID, []trace.AP) Selector { return rec },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{{User: "u1", At: 100, DemandBps: 10}, {User: "stranger", At: 105, DemandBps: 20}}
	if len(rec.batches) != 1 || !slices.Equal(rec.batches[0], want) {
		t.Errorf("SelectBatch was asked %v, want once with %v", rec.batches, want)
	}
	if len(rec.selects) != 0 {
		t.Errorf("Select was asked %v: a batch's sessions are not decided on arrival", rec.selects)
	}
	assigned := res.Domains["c1"].Assigned
	if len(assigned) != 3 {
		t.Fatalf("%d sessions placed, want 3", len(assigned))
	}
	for _, a := range assigned {
		if a.AP != "ap2" {
			t.Errorf("%s's session at t=%d is on %s, want the batch's ap2", a.Session.User, a.Session.ConnectAt, a.AP)
		}
	}
}

// TestSimulateSnapshotsOncePerDecision: a lone arrival is decided from
// the snapshot its batch opened with; only a later session of a batch
// decided on arrival, with a commit before it, takes its own.
func TestSimulateSnapshotsOncePerDecision(t *testing.T) {
	tr := &trace.Trace{Topology: twoAPTopology()}
	for i, at := range []int64{0, 50, 50, 50, 90} { // one, three at once, one
		tr.Sessions = append(tr.Sessions, trace.Session{
			User: trace.UserID(fmt.Sprintf("u%d", i)), AP: "ap1", Controller: "c1",
			ConnectAt: at, DisconnectAt: 500, Bytes: 100 * int64(i+1),
		})
	}
	rec := &recorder{}
	views := obs.GetCounter("domain.views")
	for _, sel := range []Selector{llf{}, rec} {
		before := views.Value()
		res, err := Simulate(tr, Config{SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return sel }})
		if err != nil {
			t.Fatal(err)
		}
		// LLF decides all five on arrival, a snapshot each; the batch
		// selector decides the three co-arrivals from one.
		want := map[string]int64{"test-llf": 5, "recorder": 3}[sel.Name()]
		if got := views.Value() - before; got != want {
			t.Errorf("%s: %d snapshots for 5 sessions, want %d", sel.Name(), got, want)
		}
		if sel.Name() == "test-llf" {
			// Each decision saw the load the one before it committed.
			var got []trace.APID
			for _, a := range res.Domains["c1"].Assigned {
				got = append(got, a.AP)
			}
			if want := []trace.APID{"ap1", "ap2", "ap1", "ap2", "ap1"}; !slices.Equal(got, want) {
				t.Errorf("LLF placed %v, want %v", got, want)
			}
		}
	}
	if len(rec.selects) != 2 || rec.selects[0].User != "u0" || rec.selects[1].User != "u4" {
		t.Errorf("lone arrivals decided by Select: %v, want u0 and u4", rec.selects)
	}
}

// TestLoadSeriesBinsAssignments: the series LoadSeries bins straight from
// a replay's assignments — sessions of zero length among them — equals, bit for bit, the one
// trace.BinLoads gives over those sessions copied out with the assigned
// AP written into them; and so does every row EachBin yields, domain by
// domain in Controllers() order and bin by bin, through a buffer every
// domain refills: the domains have 2, 4, 3 and 1 APs. At 7 s bins the
// window spans 13 000 bins, so EachBin fills its buffer chunk by chunk.
func TestLoadSeriesBinsAssignments(t *testing.T) {
	res := unevenReplay(t)
	for _, width := range []int64{res.BinSeconds, 7} {
		res.BinSeconds = width
		t.Run(fmt.Sprintf("bin=%ds", width), func(t *testing.T) { checkLoadSeriesBins(t, res) })
	}
}

func checkLoadSeriesBins(t *testing.T, res *Result) {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	points := 0
	rows := make(map[trace.ControllerID][][]float64)
	for _, c := range res.Controllers() {
		d := res.Domains[c]
		var sessions []trace.Session
		for _, a := range d.Assigned {
			s := a.Session
			s.AP = a.AP
			sessions = append(sessions, s)
			if s.Duration() == 0 {
				points++
			}
		}
		loads, err := trace.BinLoads(sessions, d.APs, res.Start, res.End, res.BinSeconds)
		if err != nil {
			t.Fatal(err)
		}
		rows[c] = loads
		want := &metrics.Series{Start: res.Start, BinSeconds: res.BinSeconds}
		for _, row := range loads {
			if err := want.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		got, err := res.LoadSeries(c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Idle, want.Idle) || !slices.EqualFunc(got.Values, want.Values, bits) {
			t.Errorf("%s: LoadSeries differs from BinLoads over the copied sessions", c)
		}
	}
	if points == 0 {
		t.Error("no zero-length sessions: the replay does not cover them")
	}
	var order []trace.ControllerID
	visited := make(map[trace.ControllerID]int)
	err := res.EachBin(func(c trace.ControllerID, bin int, loads []float64) error {
		if bin == 0 {
			order = append(order, c)
		}
		if want := rows[c]; bin != visited[c] || bin >= len(want) || !slices.EqualFunc(loads, want[bin], bits) {
			t.Errorf("%s: EachBin's bin %d (visit %d) differs from BinLoads", c, bin, visited[c])
		}
		visited[c]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, res.Controllers()) {
		t.Errorf("EachBin visited %v, want %v", order, res.Controllers())
	}
	for c, want := range rows {
		if visited[c] != len(want) {
			t.Errorf("%s: EachBin yielded %d bins, want %d", c, visited[c], len(want))
		}
	}
}

// unevenReplay is an LLF replay of the bench trace over domains of 2, 4,
// 3 and 1 APs, with sessions of zero length.
func unevenReplay(t *testing.T) *Result {
	t.Helper()
	tr := benchTrace(3000)
	tr.Topology.APs = slices.DeleteFunc(tr.Topology.APs, func(ap trace.AP) bool {
		return slices.Contains([]trace.APID{"ap-0-2", "ap-0-3", "ap-2-3", "ap-3-1", "ap-3-2", "ap-3-3"}, ap.ID)
	})
	for i := range tr.Sessions {
		if i%17 == 0 {
			tr.Sessions[i].DisconnectAt = tr.Sessions[i].ConnectAt
		}
	}
	res, err := Simulate(tr, Config{
		SelectorFor: func(trace.ControllerID, []trace.AP) Selector { return llf{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if widths := []int{len(res.Domains["c0"].APs), len(res.Domains["c1"].APs), len(res.Domains["c2"].APs), len(res.Domains["c3"].APs)}; !slices.Equal(widths, []int{2, 4, 3, 1}) {
		t.Fatalf("domain widths %v, want [2 4 3 1]", widths)
	}
	return res
}
