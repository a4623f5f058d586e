package protocol

// Controller lifecycle tests: AP leases and reconnection, session-log
// completeness across re-association, traffic crediting, accept-loop
// recovery, lock-free selection overlap, and a fault-injected race soak.

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
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

// recordingObserver captures lifecycle events for assertions.
type recordingObserver struct {
	mu          sync.Mutex
	connects    []trace.UserID
	disconnects map[trace.UserID]trace.APID
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{disconnects: make(map[trace.UserID]trace.APID)}
}

func (r *recordingObserver) Connect(u trace.UserID, ap trace.APID, ts int64) {
	r.mu.Lock()
	r.connects = append(r.connects, u)
	r.mu.Unlock()
}

func (r *recordingObserver) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	r.mu.Lock()
	r.disconnects[u] = ap
	r.mu.Unlock()
	return nil
}

func (r *recordingObserver) disconnectedFrom(u trace.UserID) (trace.APID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ap, ok := r.disconnects[u]
	return ap, ok
}

// TestAPAgentReconnectRenewsRegistration kills the agent's transport and
// verifies the next Report transparently redials, re-hellos, and lands as
// a renewed registration instead of "already registered".
func TestAPAgentReconnectRenewsRegistration(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})

	var mu sync.Mutex
	var raws []net.Conn
	rc := DefaultReconnectConfig()
	rc.BaseDelay = 5 * time.Millisecond
	rc.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			mu.Lock()
			raws = append(raws, raw)
			mu.Unlock()
		}
		return raw, err
	}
	agent, err := DialAPReconnecting(addr, "ap1", 1e6, testTimeout, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Report(100); err != nil {
		t.Fatal(err)
	}

	// Kill the transport out from under the agent.
	mu.Lock()
	raws[0].Close()
	mu.Unlock()

	// The next report must ride a fresh, renewed registration.
	if err := agent.Report(4321); err != nil {
		t.Fatalf("report after kill should reconnect, got %v", err)
	}
	if agent.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", agent.Reconnects())
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

// TestBackoffJitterSequence pins the one retry delay the accept loop and
// an agent's redial share: capped doubling from base, the jitter factor
// drawn as 1 + j·(2·Float64() − 1) from a source seeded once, so a seed
// draws the same delays it always has — across a reset too. Without
// jitter nothing is drawn.
func TestBackoffJitterSequence(t *testing.T) {
	const base, max, jitter, seed = 25 * time.Millisecond, 200 * time.Millisecond, 0.2, 7
	rng := rand.New(rand.NewSource(seed))
	b := newBackoff(base, max, jitter, seed)
	for round := 0; round < 2; round++ {
		b.reset()
		delay := base
		for i := 0; i < 6; i++ {
			want := time.Duration(float64(delay) * (1 + jitter*(2*rng.Float64()-1)))
			if got := b.next(); got != want {
				t.Fatalf("round %d delay %d = %v, want %v", round, i, got, want)
			}
			delay = min(2*delay, max)
		}
	}
	plain := newBackoff(5*time.Millisecond, time.Second, 0, 0)
	var got []time.Duration
	for i := 0; i < 10; i++ {
		got = append(got, plain.next())
	}
	want := []time.Duration{5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("unjittered delays = %v, want %v ms", got, want)
		}
	}
}

// TestLeaseExpiryRemovesSilentAP advances a fake clock past the lease of
// a silent agent-registered AP and verifies the AP leaves the policy's
// view, its believed user is re-homed through the observer, and the
// completed session is logged.
func TestLeaseExpiryRemovesSilentAP(t *testing.T) {
	var fake atomic.Int64
	fake.Store(100)
	obsRec := newRecordingObserver()
	var logBuf syncBuffer
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithLease(10),
		WithClock(fake.Load),
		WithObserver(obsRec),
		WithSessionLog(&logBuf),
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
	tr, err := trace.ReadJSONLines(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(tr.Sessions))
	}
	s := tr.Sessions[0]
	if s.User != "mobile-user" || s.AP != "ap1" || s.Bytes != 2048 ||
		s.ConnectAt != 100 || s.DisconnectAt != 200 {
		t.Errorf("expiry session = %+v", s)
	}
}

// TestLeaseExpiredWhileDownRehomesOnRestart covers the recovery edge
// the journal must get right: an agent-backed AP's lease runs out while
// the controller is down. The restarted controller restores the AP and
// its believed user from the journal, then the first sweep notices the
// stale lease and re-homes the user through the observer — exactly as a
// live expiry would — and logs the completed session with the connect
// time restored from the checkpoint.
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
	var logBuf syncBuffer
	b, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithLease(10),
		WithClock(fake.Load),
		WithObserver(obsRec),
		WithSessionLog(&logBuf),
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
	tr, err := trace.ReadJSONLines(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(tr.Sessions))
	}
	if s := tr.Sessions[0]; s.User != "mobile-user" || s.AP != "ap1" ||
		s.ConnectAt != 100 || s.DisconnectAt != 200 {
		t.Errorf("expiry session = %+v, want connect 100 / disconnect 200", s)
	}
}

// TestReassociationLogsBothSessions moves a station between APs and
// verifies the session completed by the move is logged with the same
// shape as an explicit disassociation — every completed association
// leaves a record.
func TestReassociationLogsBothSessions(t *testing.T) {
	var fakeMu sync.Mutex
	var fake int64
	var logBuf syncBuffer
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithSessionLog(&logBuf),
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

	for {
		tr, err := trace.ReadJSONLines(strings.NewReader(logBuf.String()))
		if err == nil && len(tr.Sessions) == 2 {
			s0, s1 := tr.Sessions[0], tr.Sessions[1]
			if s0.User != "mover" || s0.AP != first || s0.Bytes != 100 {
				t.Errorf("move session = %+v, want AP %s with 100 bytes", s0, first)
			}
			if s0.DisconnectAt <= s0.ConnectAt {
				t.Errorf("move session times = %d..%d", s0.ConnectAt, s0.DisconnectAt)
			}
			if s1.User != "mover" || s1.AP != second {
				t.Errorf("final session = %+v, want AP %s", s1, second)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want 2 logged sessions, log = %q", logBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
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

// overlapSelector blocks briefly inside Select and tracks the maximum
// number of concurrent invocations — proof the controller no longer
// serializes selection under its mutex.
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
	time.Sleep(2 * time.Millisecond)
	s.cur.Add(-1)
	return aps[0].ID, nil
}

// TestConcurrentSelectionOverlaps runs a 100-station concurrent soak and
// asserts selector.Select invocations overlap while the final state
// stays consistent (every user assigned exactly once).
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
	retriesBefore := obsSelectRetries.Value()
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

	if got := sel.max.Load(); got < 2 {
		t.Errorf("max concurrent Select = %d, want >= 2 (selection still serialized?)", got)
	}
	// Overlapping selections commit against each other, so some must
	// observe a stale version and re-run through the retry path.
	if got := obsSelectRetries.Value(); got <= retriesBefore {
		t.Error("no selection retries under contention: versioned check-and-retry not exercised")
	}
	total := 0
	for _, st := range c.Snapshot() {
		total += len(st.Users)
	}
	if total != stations {
		t.Errorf("assigned users = %d, want %d", total, stations)
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
			rc := DefaultReconnectConfig()
			rc.MaxAttempts = 100
			rc.BaseDelay = 2 * time.Millisecond
			rc.MaxDelay = 20 * time.Millisecond
			rc.Seed = int64(i)
			// The agent's own transport tears itself down every 15 writes,
			// so agents keep losing their connection and redialing.
			rc.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				raw, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return faults.WrapConn(raw, int64(i), faults.Const(faults.ConnConfig{CloseAfterWrites: 15})), nil
			}
			agent, err := DialAPReconnecting(addr, trace.APID(fmt.Sprintf("ap-%d", i)), 1e6, timeout, rc)
			if err != nil {
				return
			}
			defer agent.Close()
			for time.Now().Before(deadline) {
				_ = agent.Report(float64(i) * 1e5)
				time.Sleep(10 * time.Millisecond)
			}
			redials.Add(agent.Reconnects())
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
