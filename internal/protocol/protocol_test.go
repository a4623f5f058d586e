package protocol

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

const testTimeout = 5 * time.Second

func startController(t *testing.T, sel wlan.Selector) (*Controller, string) {
	t.Helper()
	c, err := NewController(sel, WithTimeout(testTimeout))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, addr
}

func TestControllerRequiresSelector(t *testing.T) {
	if _, err := NewController(nil); err == nil {
		t.Error("nil selector should error")
	}
}

func TestAPRegistrationAndReports(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	agent, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Report(1234); err != nil {
		t.Fatal(err)
	}
	// Reports are applied asynchronously; poll the snapshot.
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		if st, ok := snap["ap1"]; ok && st.ReportedBps == 1234 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDuplicateAPTakesOver: a second agent hello for the same AP is a
// renewal that supersedes the previous connection (a half-open TCP
// session is indistinguishable from a live one, so the newest agent
// wins), never a permanent "already registered" rejection.
func TestDuplicateAPTakesOver(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	a1, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := DialAP(addr, "ap1", 2e6, testTimeout)
	if err != nil {
		t.Fatalf("re-hello should take over, got %v", err)
	}
	defer a2.Close()
	if err := a2.Report(777); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		if st, ok := snap["ap1"]; ok && st.ReportedBps == 777 && st.CapacityBps == 2e6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("takeover not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(c.Snapshot()) != 1 {
		t.Errorf("AP registered more than once: %+v", c.Snapshot())
	}
	// A static registration is not up for takeover by agents.
	if err := c.RegisterAP("ap-static", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := DialAP(addr, "ap-static", 1e6, testTimeout); err == nil {
		t.Error("agent hello for a statically registered AP should fail")
	}
}

func TestStationAssociationLifecycle(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 1e6); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 1e6); err != nil {
		t.Fatal(err)
	}

	st, err := DialStation(addr, "user-1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ap, err := st.Associate(100)
	if err != nil {
		t.Fatal(err)
	}
	if ap != "ap1" && ap != "ap2" {
		t.Fatalf("assigned to unknown AP %q", ap)
	}
	if st.AP() != ap {
		t.Error("station should remember its AP")
	}
	if err := st.SendTraffic(5000); err != nil {
		t.Fatal(err)
	}
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}
	// After disassociation the user is gone from the snapshot.
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		total := 0
		for _, s := range snap {
			total += len(s.Users)
		}
		if total == 0 && snap[ap].ServedBytes == 5000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state not settled: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Traffic before re-association is rejected client-side.
	if err := st.SendTraffic(1); err == nil {
		t.Error("traffic without association should error")
	}
}

func TestLLFBalancesStations(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}
	var stations []*Station
	for _, u := range []trace.UserID{"u1", "u2", "u3", "u4"} {
		st, err := DialStation(addr, u, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Associate(100); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	counts := map[trace.APID]int{}
	for _, st := range stations {
		counts[st.AP()]++
	}
	if counts["ap1"] != 2 || counts["ap2"] != 2 {
		t.Errorf("LLF placement = %v, want 2/2", counts)
	}
}

func TestS3DispersesFriendsOverTCP(t *testing.T) {
	// Two tight friends and an unrelated user: the S³ controller must put
	// the friends on different APs.
	model, err := society.NewModel([]society.PairStat{
		{Pair: society.MakePair("alice", "bob"), Prob: 0.9, Supported: true}}, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewSelector(model, core.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, addr := startController(t, sel)
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}

	assign := func(user trace.UserID) trace.APID {
		st, err := DialStation(addr, user, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ap, err := st.Associate(100)
		if err != nil {
			t.Fatal(err)
		}
		return ap
	}
	apAlice := assign("alice")
	apBob := assign("bob")
	if apAlice == apBob {
		t.Errorf("friends colocated on %s", apAlice)
	}
}

func TestAssociateWithoutAPs(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	st, err := DialStation(addr, "u", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(10); err == nil {
		t.Error("association without APs should fail")
	}
}

func TestBadHello(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, testTimeout)
	// Wrong first message type.
	if err := conn.Send(Message{Type: MsgReport}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError {
		t.Errorf("reply = %s, want error", reply.Type)
	}
}

func TestUnknownRoleRejected(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, testTimeout)
	if err := conn.Send(Message{Type: MsgHello, Role: "bogus", ID: "x"}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError || !strings.Contains(reply.Error, "unknown role") {
		t.Errorf("reply = %+v", reply)
	}
}

func TestMalformedFrame(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The controller drops the connection; a follow-up read sees EOF.
	buf := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(testTimeout))
	if _, err := raw.Read(buf); err == nil {
		// Either an error frame or a close is acceptable; a successful
		// read must carry an error message.
		if !strings.Contains(string(buf), "error") {
			t.Errorf("unexpected reply to garbage: %q", buf)
		}
	}
}

func TestControllerReassociation(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}
	st, err := DialStation(addr, "u", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	// Re-associate: the user must exist exactly once.
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	total := 0
	for _, s := range snap {
		total += len(s.Users)
	}
	if total != 1 {
		t.Errorf("user present %d times after re-association", total)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := NewConn(server, 0)
		m, err := c.Receive()
		if err != nil {
			return
		}
		_ = c.Send(m) // echo
	}()
	c := NewConn(client, 0)
	want := Message{Type: MsgAssign, User: "u", AP: "ap1", DemandBps: 42.5}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

// TestOnlineLearnerIntegration wires the live learner (the incremental
// engine) into the controller and verifies the live association
// lifecycle feeds it.
func TestOnlineLearnerIntegration(t *testing.T) {
	learnerCfg := incremental.DefaultConfig()
	learnerCfg.Society.MinEncounters = 1
	learnerCfg.Society.MinEncounterSeconds = 10
	learner := incremental.New(learnerCfg)

	var fake int64
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithObserver(learner),
		WithClock(func() int64 { fake += 100; return fake }),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	// Two stations associate on the same AP, then leave back to back.
	var stations []*Station
	for _, u := range []trace.UserID{"a", "b"} {
		st, err := DialStation(addr, u, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Associate(10); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	for _, st := range stations {
		if err := st.Disassociate(); err != nil {
			t.Fatal(err)
		}
	}
	// Disassociations are handled asynchronously; wait for the second,
	// which is the one that tallies the co-leaving.
	coLeaves := func() int {
		_, n := learner.Model().Counts("a", "b")
		return n
	}
	deadline := time.Now().Add(testTimeout)
	for coLeaves() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("learner did not settle: no co-leaving recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	enc, col := learner.Model().Counts("a", "b")
	if enc == 0 {
		t.Error("learner should have recorded the encounter")
	}
	if col == 0 {
		t.Error("learner should have recorded the co-leaving")
	}
}

// TestSessionLogProducesParsableTrace verifies the sessions an observer
// assembles from the controller's Connect/Disconnect events round-trip
// through the trace codec — the prototype yields the same records the
// paper's data-center login log did.
func TestSessionLogProducesParsableTrace(t *testing.T) {
	obsRec := newRecordingObserver()
	var fake int64
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithObserver(obsRec),
		WithClock(func() int64 { fake += 50; return fake }),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	st, err := DialStation(addr, "logger-user", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(10); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(4096); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()["ap1"].ServedBytes != 4096 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONLines(&buf, &trace.Trace{Sessions: obsRec.waitSessions(t, 1)}); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(tr.Sessions))
	}
	s := tr.Sessions[0]
	if s.User != "logger-user" || s.AP != "ap1" {
		t.Errorf("observed session = %+v", s)
	}
	if s.DisconnectAt <= s.ConnectAt {
		t.Errorf("session times = %d..%d", s.ConnectAt, s.DisconnectAt)
	}
}
