package protocol

// Controller lifecycle tests: AP leases and re-registration, session
// completeness across re-association, traffic crediting, accept-loop
// recovery, serialized selection, and a fault-injected race soak.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// recordingObserver captures lifecycle events for assertions and pairs
// each Connect with the Disconnect that ends it into a trace.Session
// (Bytes left zero: the observer does not see traffic).
type recordingObserver struct {
	mu          sync.Mutex
	connects    []trace.UserID
	disconnects map[trace.UserID]trace.APID
	open        map[trace.UserID]trace.Session
	sessions    []trace.Session
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		disconnects: make(map[trace.UserID]trace.APID),
		open:        make(map[trace.UserID]trace.Session),
	}
}

func (r *recordingObserver) Connect(u trace.UserID, ap trace.APID, ts int64) {
	r.mu.Lock()
	r.connects = append(r.connects, u)
	r.open[u] = trace.Session{User: u, AP: ap, ConnectAt: ts}
	r.mu.Unlock()
}

func (r *recordingObserver) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	r.mu.Lock()
	r.disconnects[u] = ap
	if s, ok := r.open[u]; ok && s.AP == ap {
		s.DisconnectAt = ts
		r.sessions = append(r.sessions, s)
		delete(r.open, u)
	}
	r.mu.Unlock()
	return nil
}

// completed returns the sessions closed so far, in disconnect order.
func (r *recordingObserver) completed() []trace.Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trace.Session(nil), r.sessions...)
}

// waitSessions polls until at least n sessions have completed.
func (r *recordingObserver) waitSessions(t *testing.T, n int) []trace.Session {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		if got := r.completed(); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("want %d completed sessions, have %+v", n, r.completed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *recordingObserver) disconnectedFrom(u trace.UserID) (trace.APID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ap, ok := r.disconnects[u]
	return ap, ok
}

// TestAPAgentReconnectRenewsRegistration kills the agent's transport and
// dials the same AP again: the second hello lands as a renewed
// registration instead of "already registered", its reports apply, and
// the controller still knows one AP.
func TestAPAgentReconnectRenewsRegistration(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	agent, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Report(100); err != nil {
		t.Fatal(err)
	}

	// Kill the transport out from under the agent, then dial again.
	agent.conn.Close()
	renewed := obsAPRenewed.Value()
	again, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatalf("re-dial after kill: %v", err)
	}
	defer again.Close()
	if err := again.Report(4321); err != nil {
		t.Fatal(err)
	}
	if got := obsAPRenewed.Value() - renewed; got != 1 {
		t.Errorf("renewals = %d, want 1", got)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		if st, ok := snap["ap1"]; ok && st.ReportedBps == 4321 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-reconnect report not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(c.Snapshot()); n != 1 {
		t.Errorf("APs registered = %d, want 1 (renewal, not duplicate)", n)
	}
}

// TestAgentSecondHelloRefused: an agent connection serves one AP. A
// second hello on it is refused with an explicit MsgError, registers
// nothing, and leaves the first AP's reports applying on the same
// connection.
func TestAgentSecondHelloRefused(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	agent, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.conn.Send(Message{Type: MsgHello, Role: RoleAP, ID: "ap2", CapacityBps: 1e6}); err != nil {
		t.Fatal(err)
	}
	if reply, err := agent.conn.Receive(); err != nil || reply.Type != MsgError {
		t.Fatalf("second hello reply = %+v, %v; want %s", reply, err, MsgError)
	}
	if err := agent.Report(777); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()["ap1"].ReportedBps != 777 {
		if time.Now().After(deadline) {
			t.Fatalf("ap1 report not applied after the refused hello: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap := c.Snapshot(); len(snap) != 1 {
		t.Errorf("registered APs = %v, want ap1 alone", snap)
	}
}

// TestBackoffJitterSequence pins the accept loop's retry delay: capped
// doubling from 5 ms to 1 s, back to 5 ms after a reset.
func TestBackoffJitterSequence(t *testing.T) {
	b := newBackoff(5*time.Millisecond, time.Second)
	want := []time.Duration{5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for round := 0; round < 2; round++ {
		b.reset()
		var got []time.Duration
		for range want {
			got = append(got, b.next())
		}
		for i := range want {
			if got[i] != want[i]*time.Millisecond {
				t.Fatalf("round %d delays = %v, want %v ms", round, got, want)
			}
		}
	}
}

// TestAgentGoneLogsLeaseOnlyWhenSet: a lost agent connection names the
// lease only when WithLease set one; otherwise the log says the AP stays
// registered.
func TestAgentGoneLogsLeaseOnlyWhenSet(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []ControllerOption
		want string
	}{
		{"no lease", nil, "ap ap1 agent connection lost (no lease: the AP stays registered)\n"},
		{"lease", []ControllerOption{WithLease(10)}, "ap ap1 agent connection lost (lease of 10s pending)\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			ctl, err := NewController(baseline.LLF{}, append(c.opts, WithLogger(log.New(&buf, "", 0)))...)
			if err != nil {
				t.Fatal(err)
			}
			defer ctl.Close()
			if err := ctl.RegisterAP("ap1", 1e6); err != nil {
				t.Fatal(err)
			}
			ctl.agentGone("ap1", 0)
			if got := buf.String(); got != c.want {
				t.Errorf("log = %q, want %q", got, c.want)
			}
		})
	}
}

// TestLeaseExpiryRemovesSilentAP advances a fake clock past the lease of
// a silent agent-registered AP and verifies the AP leaves the policy's
// view, its believed user is re-homed through the observer, and the
// observer sees the completed session.
func TestLeaseExpiryRemovesSilentAP(t *testing.T) {
	var fake atomic.Int64
	fake.Store(100)
	obsRec := newRecordingObserver()
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithLease(10),
		WithClock(fake.Load),
		WithObserver(obsRec),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	agent, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	st, err := DialStation(addr, "mobile-user", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ap, err := st.Associate(100); err != nil || ap != "ap1" {
		t.Fatalf("associate = %q, %v", ap, err)
	}
	if err := st.SendTraffic(2048); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()["ap1"].ServedBytes != 2048 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The agent goes silent; time passes beyond the lease.
	fake.Store(200)
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("expired AP still visible: %+v", snap)
	}
	if _, err := c.Associate("another-user", 10); err == nil {
		t.Error("associate with only an expired AP should fail")
	}
	if ap, ok := obsRec.disconnectedFrom("mobile-user"); !ok || ap != "ap1" {
		t.Errorf("observer disconnect = %q, %v; want ap1 re-homing", ap, ok)
	}
	sessions := obsRec.completed()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %+v, want 1", sessions)
	}
	if s := sessions[0]; s.User != "mobile-user" || s.AP != "ap1" ||
		s.ConnectAt != 100 || s.DisconnectAt != 200 {
		t.Errorf("expiry session = %+v", s)
	}
}

// TestLeaseExpiredWhileDownRehomesOnRestart covers the recovery edge
// the journal must get right: an agent-backed AP's lease runs out while
// the controller is down. The restarted controller restores the AP and
// its believed user from the journal, then the first sweep notices the
// stale lease and re-homes the user through the observer — exactly as a
// live expiry would — and the observer sees the completed session with
// the connect time restored from the journal.
func TestLeaseExpiredWhileDownRehomesOnRestart(t *testing.T) {
	dir := t.TempDir()
	var fake atomic.Int64
	fake.Store(100)
	a, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithLease(10),
		WithClock(fake.Load),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DialStation(addr, "mobile-user", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ap, err := st.Associate(100); err != nil || ap != "ap1" {
		t.Fatalf("associate = %q, %v", ap, err)
	}
	// Crash: controller a is abandoned with both connections still up —
	// a graceful close would disassociate the station. With FsyncAlways
	// the registration (lastSeen=100) and association are already
	// durable. The agent never comes back; the lease lapses while the
	// controller is down.
	_, _ = agent, st
	fake.Store(200)

	obsRec := newRecordingObserver()
	b, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithLease(10),
		WithClock(fake.Load),
		WithObserver(obsRec),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := b.Recovery()
	if rec == nil || rec.APs != 1 || rec.Assignments != 1 || rec.ReplayErrors != 0 {
		t.Fatalf("recovery = %+v, want the AP and its user restored", rec)
	}

	// The first sweep must expire the AP and re-home the user.
	if snap := b.Snapshot(); len(snap) != 0 {
		t.Fatalf("expired AP survived the restart sweep: %+v", snap)
	}
	if ap, ok := obsRec.disconnectedFrom("mobile-user"); !ok || ap != "ap1" {
		t.Errorf("observer disconnect = %q, %v; want ap1 re-homing", ap, ok)
	}
	sessions := obsRec.completed()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %+v, want 1", sessions)
	}
	if s := sessions[0]; s.User != "mobile-user" || s.AP != "ap1" ||
		s.ConnectAt != 100 || s.DisconnectAt != 200 {
		t.Errorf("expiry session = %+v, want connect 100 / disconnect 200", s)
	}
}

// TestReassociationLogsBothSessions moves a station between APs and
// verifies the observer sees the session completed by the move with the
// same shape as an explicit disassociation — every completed
// association leaves a record.
func TestReassociationLogsBothSessions(t *testing.T) {
	var fakeMu sync.Mutex
	var fake int64
	obsRec := newRecordingObserver()
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithObserver(obsRec),
		WithClock(func() int64 {
			fakeMu.Lock()
			defer fakeMu.Unlock()
			fake += 50
			return fake
		}),
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
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}

	st, err := DialStation(addr, "mover", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first, err := st.Associate(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()[first].ServedBytes != 100 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// LLF sends the re-association to the other, now-lighter AP.
	second, err := st.Associate(100)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatalf("expected a move, stayed on %s", first)
	}
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}

	sessions := obsRec.waitSessions(t, 2)
	if len(sessions) != 2 {
		t.Fatalf("want 2 completed sessions, have %+v", sessions)
	}
	s0, s1 := sessions[0], sessions[1]
	if s0.User != "mover" || s0.AP != first {
		t.Errorf("move session = %+v, want AP %s", s0, first)
	}
	if s0.DisconnectAt <= s0.ConnectAt {
		t.Errorf("move session times = %d..%d", s0.ConnectAt, s0.DisconnectAt)
	}
	if s1.User != "mover" || s1.AP != second {
		t.Errorf("final session = %+v, want AP %s", s1, second)
	}
}

// TestTrafficCreditedToAssignedAP sends a traffic frame claiming a bogus
// AP and verifies the bytes land on the controller's recorded
// assignment; traffic from an unassociated user is rejected.
func TestTrafficCreditedToAssignedAP(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, testTimeout)
	if err := conn.Send(Message{Type: MsgHello, Role: RoleStation, ID: "u1"}); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Receive(); err != nil || reply.Type != MsgHelloOK {
		t.Fatalf("hello reply = %+v, %v", reply, err)
	}
	if err := conn.Send(Message{Type: MsgAssoc, User: "u1", DemandBps: 10}); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Receive(); err != nil || reply.Type != MsgAssign || reply.AP != "ap1" {
		t.Fatalf("assign reply = %+v, %v", reply, err)
	}
	// Claim the bytes were served elsewhere.
	if err := conn.Send(Message{Type: MsgTraffic, AP: "ap-bogus", Bytes: 500}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()["ap1"].ServedBytes != 500 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic not credited to recorded assignment: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A user with no assignment cannot credit traffic anywhere.
	before := obsTrafficRejected.Value()
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	conn2 := NewConn(raw2, testTimeout)
	if err := conn2.Send(Message{Type: MsgHello, Role: RoleStation, ID: "u2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Receive(); err != nil {
		t.Fatal(err)
	}
	if err := conn2.Send(Message{Type: MsgTraffic, AP: "ap1", Bytes: 999}); err != nil {
		t.Fatal(err)
	}
	for obsTrafficRejected.Value() < before+1 {
		if time.Now().After(deadline) {
			t.Fatal("unassociated traffic not rejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Snapshot()["ap1"].ServedBytes; got != 500 {
		t.Errorf("served = %d after rejected traffic, want 500", got)
	}
}

// pinSelector places every request on the AP the test last stored.
type pinSelector struct{ ap atomic.Value }

func (*pinSelector) Name() string { return "pin" }

func (s *pinSelector) Select(wlan.Request, []wlan.APView) (trace.APID, error) {
	return s.ap.Load().(trace.APID), nil
}

// TestDroppedConnKeepsNewerAssociation: a user's older station
// connection hanging up ends only a session it placed. Station A places
// u on ap1, station B moves u to ap2, then A half-closes and reads the
// controller's close: u must still be on ap2, B's traffic credited
// there, and an explicit disassoc from B still ends the session.
func TestDroppedConnKeepsNewerAssociation(t *testing.T) {
	sel := &pinSelector{}
	c, addr := startController(t, sel)
	for _, ap := range []trace.APID{"ap1", "ap2"} {
		if err := c.RegisterAP(ap, 0); err != nil {
			t.Fatal(err)
		}
	}
	dial := func(to trace.APID) *Station {
		t.Helper()
		sel.ap.Store(to)
		st, err := DialStation(addr, "u", testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if ap, err := st.Associate(10); err != nil || ap != to {
			t.Fatalf("associate = %q, %v; want %q", ap, err, to)
		}
		return st
	}
	a := dial("ap1")
	b := dial("ap2")

	if err := a.conn.raw.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.conn.Receive(); !errors.Is(err, io.EOF) {
		t.Fatalf("A after its hang-up read %v, want the controller's close (EOF)", err)
	}
	snap := c.Snapshot()
	if got := snap["ap2"].Users; !reflect.DeepEqual(got, []trace.UserID{"u"}) || len(snap["ap1"].Users) != 0 {
		t.Fatalf("after A's hang-up ap1 holds %v and ap2 %v; want u on ap2 only", snap["ap1"].Users, got)
	}

	before := obsTrafficRejected.Value()
	if err := b.SendTraffic(700); err != nil {
		t.Fatal(err)
	}
	if ap, err := b.Associate(10); err != nil || ap != "ap2" { // a barrier: the refresh follows the traffic
		t.Fatalf("B's refresh = %q, %v", ap, err)
	}
	if got := c.Snapshot()["ap2"].ServedBytes; got != 700 || obsTrafficRejected.Value() != before {
		t.Errorf("B's 700 bytes: ap2 served %d, %d rejected", got, obsTrafficRejected.Value()-before)
	}

	if err := b.Disassociate(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for len(c.Snapshot()["ap2"].Users) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("B's disassoc did not end the session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAcceptLoopSurvivesTransientErrors serves through a listener that
// fails its first accepts and verifies the controller retries instead of
// abandoning the listener.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	c, err := NewController(baseline.LLF{}, WithTimeout(testTimeout))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	before := obsAcceptRetries.Value()
	addr := c.Serve(&faults.FlakyListener{Listener: ln, FailFirst: 3})
	t.Cleanup(func() { c.Close() })
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	// The dial only completes once the accept loop has ridden out the
	// transient errors.
	st, err := DialStation(addr, "u", testTimeout)
	if err != nil {
		t.Fatalf("dial through transient accept errors: %v", err)
	}
	defer st.Close()
	if _, err := st.Associate(10); err != nil {
		t.Fatal(err)
	}
	if got := obsAcceptRetries.Value(); got < before+3 {
		t.Errorf("accept retries = %d, want >= %d", got-before, 3)
	}
}

// overlapSelector yields inside Select and tracks the maximum number of
// concurrent invocations.
type overlapSelector struct {
	cur, max atomic.Int64
}

func (s *overlapSelector) Name() string { return "overlap" }

func (s *overlapSelector) Select(req wlan.Request, aps []wlan.APView) (trace.APID, error) {
	n := s.cur.Add(1)
	for {
		m := s.max.Load()
		if n <= m || s.max.CompareAndSwap(m, n) {
			break
		}
	}
	for i := 0; i < 10; i++ {
		runtime.Gosched() // let a racing decider in, were it able to enter
	}
	s.cur.Add(-1)
	return aps[0].ID, nil
}

// TestConcurrentSelectionOverlaps runs a 100-station concurrent soak and
// asserts the decision is serialized — selector.Select is never entered
// concurrently, since it runs under c.mu — while every user is assigned
// exactly once.
func TestConcurrentSelectionOverlaps(t *testing.T) {
	sel := &overlapSelector{}
	c, err := NewController(sel, WithTimeout(testTimeout))
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range []trace.APID{"ap1", "ap2", "ap3"} {
		if err := c.RegisterAP(ap, 0); err != nil {
			t.Fatal(err)
		}
	}

	const stations = 100
	var wg sync.WaitGroup
	errs := make(chan error, stations)
	for i := 0; i < stations; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Associate(trace.UserID(fmt.Sprintf("user-%03d", i)), 100); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := sel.max.Load(); got != 1 {
		t.Errorf("max concurrent Select = %d, want 1 (decisions run under c.mu)", got)
	}
	seen := make(map[trace.UserID]int)
	for _, st := range c.Snapshot() {
		for _, u := range st.Users {
			seen[u]++
		}
	}
	for i := 0; i < stations; i++ {
		if u := trace.UserID(fmt.Sprintf("user-%03d", i)); seen[u] != 1 {
			t.Errorf("%s assigned %d times, want once", u, seen[u])
		}
	}
	if len(seen) != stations {
		t.Errorf("assigned users = %d, want %d", len(seen), stations)
	}
}

// TestChaosSoakRace drives concurrent agents and stations through a
// fault-injecting listener for a while — reconnects, torn frames,
// dropped reports, churned associations, agents whose own transports
// keep closing — and verifies the controller neither races (run with
// -race) nor wedges. `make chaos` runs it under -race.
func TestChaosSoakRace(t *testing.T) {
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	const timeout = 2 * time.Second
	c, err := NewController(baseline.LLF{}, WithTimeout(timeout), WithLease(30))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := c.Serve(&faults.Listener{
		Listener: ln,
		Seed:     42,
		Source: faults.Const(faults.ConnConfig{
			DropWriteProb:    0.02,
			PartialWriteProb: 0.02,
			ReadErrProb:      0.02,
			DelayProb:        0.05,
			MaxDelay:         time.Millisecond,
			CloseAfterReads:  40,
		}),
	})
	t.Cleanup(func() { c.Close() })
	// One static AP guarantees associations have a target even while
	// every agent connection happens to be down.
	if err := c.RegisterAP("ap-static", 0); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	var redials atomic.Int64
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := trace.APID(fmt.Sprintf("ap-%d", i))
			// dial registers the AP and hands the agent a transport that
			// tears itself down every 15 writes, so agents keep losing
			// their connection and dialing again.
			dial := func() *APAgent {
				agent, err := DialAP(addr, id, 1e6, timeout)
				if err != nil {
					return nil
				}
				agent.conn.raw = faults.WrapConn(agent.conn.raw, int64(i), faults.Const(faults.ConnConfig{CloseAfterWrites: 15}))
				return agent
			}
			var agent *APAgent
			for time.Now().Before(deadline) {
				switch {
				case agent == nil:
					agent = dial()
				case agent.Report(float64(i)*1e5) != nil:
					agent.Close()
					agent = dial()
					redials.Add(1)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if agent != nil {
				agent.Close()
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := trace.UserID(fmt.Sprintf("churn-%02d", i))
			for time.Now().Before(deadline) {
				st, err := DialStation(addr, user, timeout)
				if err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				for time.Now().Before(deadline) {
					if _, err := st.Associate(100); err != nil {
						break
					}
					if err := st.SendTraffic(4096); err != nil {
						break
					}
					if i%2 == 0 {
						if err := st.Disassociate(); err != nil {
							break
						}
					}
					time.Sleep(5 * time.Millisecond)
				}
				st.Close()
			}
		}(i)
	}
	wg.Wait()
	if redials.Load() == 0 {
		t.Error("no agent redialed: the self-closing transport never fired")
	}

	// The controller must still be responsive after the soak.
	if err := c.RegisterAP("ap-post", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Associate("post-soak-user", 10); err != nil {
		t.Fatalf("controller wedged after soak: %v", err)
	}
}
