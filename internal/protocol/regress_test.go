package protocol

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestSameAPReassociationKeepsSession: re-associating onto the current
// AP is a demand refresh, not a move. The session stays continuous (one
// trace record at the end, carrying all served bytes), the move counter
// does not tick, and the association timestamp survives.
func TestSameAPReassociationKeepsSession(t *testing.T) {
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
	// One AP: every re-association necessarily lands on the same AP.
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	movesBefore := obs.Default.GetCounter("protocol.assoc.moves").Value()
	st, err := DialStation(addr, "stayer", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(70); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()["ap1"].ServedBytes != 70 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	firstAt := c.sessions["stayer"].at
	c.mu.Unlock()

	// Same-AP re-association with a new demand.
	if _, err := st.Associate(250); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(30); err != nil {
		t.Fatal(err)
	}
	for c.Snapshot()["ap1"].ServedBytes != 100 {
		if time.Now().After(deadline) {
			t.Fatalf("post-refresh traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c.mu.Lock()
	refreshAt := c.sessions["stayer"].at
	served := c.sessions["stayer"].served
	c.mu.Unlock()
	if refreshAt != firstAt {
		t.Errorf("refresh reset assignedAt: %d -> %d", firstAt, refreshAt)
	}
	if served != 100 {
		t.Errorf("refresh lost served bytes: %d, want 100", served)
	}
	if moves := obs.Default.GetCounter("protocol.assoc.moves").Value(); moves != movesBefore {
		t.Errorf("same-AP refresh counted as a move (%d -> %d)", movesBefore, moves)
	}
	// The demand update itself must land in the domain.
	if info, ok := c.dom.Info("ap1"); !ok || info.BelievedBps != 250 {
		t.Errorf("believed demand = %+v (%v), want 250", info, ok)
	}
	if logBuf.String() != "" {
		t.Errorf("refresh emitted a session record: %q", logBuf.String())
	}

	// Disassociating closes ONE session spanning both halves.
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}
	for {
		tr, err := trace.ReadJSONLines(strings.NewReader(logBuf.String()))
		if err == nil && len(tr.Sessions) == 1 {
			s := tr.Sessions[0]
			if s.User != "stayer" || s.AP != "ap1" || s.Bytes != 100 || s.ConnectAt != firstAt {
				t.Errorf("session = %+v, want one continuous ap1 session with 100 bytes from %d", s, firstAt)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want exactly 1 session, log = %q", logBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSameAPRefreshJournalReplayParity: a journal replay of a same-AP
// re-association reproduces the live controller's refresh semantics —
// the session timestamp is not split on recovery either.
func TestSameAPRefreshJournalReplayParity(t *testing.T) {
	dir := t.TempDir()
	var fake int64
	clock := func() int64 { fake += 1000; return fake }
	a, err := NewController(baseline.LLF{},
		WithClock(clock),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterAP("ap1", 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate("u", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate("u", 300); err != nil { // same-AP refresh
		t.Fatal(err)
	}
	a.mu.Lock()
	wantAt := a.sessions["u"].at
	a.mu.Unlock()
	wantState := a.dom.ExportState()
	wantSnap := a.Snapshot()
	// Crash (no Close); recover in a fresh controller.
	b, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rec := b.Recovery(); rec == nil || rec.ReplayErrors != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	b.mu.Lock()
	gotAt := b.sessions["u"].at
	b.mu.Unlock()
	if gotAt != wantAt {
		t.Errorf("replayed assignedAt = %d, want %d (refresh must not split the session)", gotAt, wantAt)
	}
	if !reflect.DeepEqual(b.dom.ExportState(), wantState) {
		t.Errorf("replayed domain state diverged")
	}
	if !reflect.DeepEqual(b.Snapshot(), wantSnap) {
		t.Errorf("replayed snapshot diverged:\nwant %+v\ngot  %+v", wantSnap, b.Snapshot())
	}
}

// TestAgentDetachedOnProtocolError: when the AP handler exits because
// the agent sent an unexpected message, the connection must be detached
// from the registration (agentConn nil) exactly as on a dropped
// connection — otherwise a later supersede closes a dangling *Conn and
// lease logic believes an agent is still attached.
func TestAgentDetachedOnProtocolError(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, testTimeout)
	if err := conn.Send(Message{Type: MsgHello, Role: RoleAP, ID: "ap-x", CapacityBps: 1e6}); err != nil {
		t.Fatal(err)
	}
	if ok, err := conn.Receive(); err != nil || ok.Type != MsgHelloOK {
		t.Fatalf("hello reply = %+v, %v", ok, err)
	}
	// An AP has no business sending an association request.
	if err := conn.Send(Message{Type: MsgAssoc, DemandBps: 1}); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Receive(); err != nil || reply.Type != MsgError {
		t.Fatalf("want MsgError for unexpected message, got %+v, %v", reply, err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		c.mu.Lock()
		m, ok := c.meta["ap-x"]
		detached := ok && m.agentConn == nil
		c.mu.Unlock()
		if !ok {
			t.Fatal("ap-x registration vanished")
		}
		if detached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agentConn still attached after protocol-error exit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The AP survives on its lease and a fresh agent can take over.
	a2, err := DialAP(addr, "ap-x", 2e6, testTimeout)
	if err != nil {
		t.Fatalf("takeover after protocol-error exit: %v", err)
	}
	defer a2.Close()
	if err := a2.Report(55); err != nil {
		t.Fatal(err)
	}
	for c.Snapshot()["ap-x"].ReportedBps != 55 {
		if time.Now().After(deadline) {
			t.Fatalf("takeover report not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBinaryPortCrashRecovery: a journaled controller driven entirely
// over the binary wire protocol, abandoned without Close (the kill -9
// equivalent), warm-restarts with byte-identical recovered state — with
// LLF, and with the shipped s3-live wiring, where recovery crosses two
// checkpoints carrying the social engine's state and the restarted
// engine must publish what the crashed one would have.
func TestBinaryPortCrashRecovery(t *testing.T) {
	t.Run("llf", func(t *testing.T) { binaryPortCrashRecovery(t, false) })
	t.Run("s3-live", func(t *testing.T) { binaryPortCrashRecovery(t, true) })
}

func binaryPortCrashRecovery(t *testing.T, live bool) {
	dir := t.TempDir()
	open := func(extra ...ControllerOption) (*Controller, *incremental.Engine) {
		var sel wlan.Selector = baseline.LLF{}
		var eng *incremental.Engine
		jopts := journal.Options{Fsync: journal.FsyncAlways}
		if live {
			sel, eng = s3Live(t, observerEngineConfig())
			extra = append(extra, WithObserver(eng))
			jopts.CheckpointEvery = 4
		}
		c, err := NewController(sel, append(extra, WithJournal(dir, jopts))...)
		if err != nil {
			t.Fatal(err)
		}
		return c, eng
	}
	a, engA := open(WithTimeout(testTimeout))
	// The "crashed" controller lives on until the test ends. Stop it
	// before the temp dir is removed (cleanups run last-registered
	// first: stations close, then this, then RemoveAll), or the
	// disassociations those closes trigger are still being journaled —
	// files created — while the directory is being deleted.
	t.Cleanup(func() { a.Close() })
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		agent, err := DialAP(addr, trace.APID(fmt.Sprintf("ap-%d", i)), float64(i+1)*1e6, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
	}
	deadline := time.Now().Add(testTimeout)
	for len(a.Snapshot()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("agent registrations not applied: %+v", a.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stations stay open until the recovery assertions are done: a
	// close would disassociate the user (and journal it) — a kill -9
	// freezes the world with every association live. They must stay
	// referenced too: the GC's fd finalizer closes an unreachable
	// connection, which the controller journals as a disassociation.
	var stations []*Station
	t.Cleanup(func() {
		for _, st := range stations {
			st.Close()
		}
	})
	for i := 0; i < 6; i++ {
		st, err := DialStation(addr, trace.UserID(fmt.Sprintf("u-%d", i)), testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
		if _, err := st.Associate(float64(50 * (i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	wantState, err := json.Marshal(a.dom.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	wantAssign, _ := json.Marshal(assignmentsOf(a))
	a.mu.Unlock()
	// Crash: no Close — journal file handle abandoned, listeners leak
	// until the test process exits.

	b, engB := open()
	defer b.Close()
	rec := b.Recovery()
	if rec == nil || rec.ReplayErrors != 0 || rec.APs != 3 || rec.Assignments != 6 {
		t.Fatalf("recovery = %+v, want 3 APs, 6 assignments, no errors", rec)
	}
	if live {
		if rec.Stats.CheckpointSeq == 0 {
			t.Fatalf("s3-live recovery did not cross a checkpoint: %+v", rec.Stats)
		}
		engA.Refresh()
		engB.Refresh()
		engineSnapshotsMatch(t, "post-crash", engA.Snapshot(), engB.Snapshot())
		if engB.Snapshot().Users != 6 {
			t.Fatalf("recovered engine knows %d users, want 6", engB.Snapshot().Users)
		}
	}
	gotState, err := json.Marshal(b.dom.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if string(gotState) != string(wantState) {
		t.Fatalf("recovered domain state not byte-identical:\nwant %s\ngot  %s", wantState, gotState)
	}
	b.mu.Lock()
	gotAssign, _ := json.Marshal(assignmentsOf(b))
	b.mu.Unlock()
	if string(gotAssign) != string(wantAssign) {
		t.Fatalf("recovered assignments not byte-identical:\nwant %s\ngot  %s", wantAssign, gotAssign)
	}
}

// TestDisassocCheckpointConsistency: a checkpoint triggered by the
// disassociation record itself (checkpoint-every-1 forces rotation on
// each append) must capture the user's session removed, never a ghost.
func TestDisassocCheckpointConsistency(t *testing.T) {
	dir := t.TempDir()
	a, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways, CheckpointEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterAP("ap1", 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate("ghost", 100); err != nil {
		t.Fatal(err)
	}
	a.disassociate("ghost")
	// Crash without Close; recover from the checkpoint keyed to the
	// disassoc record.
	b, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.mu.Lock()
	s, ghost := b.sessions["ghost"]
	b.mu.Unlock()
	if ghost {
		t.Errorf("recovered ghost user: %+v", s)
	}
}

// assignmentsOf copies c's user → AP assignments out of its session
// table.
func assignmentsOf(c *Controller) map[trace.UserID]trace.APID {
	out := make(map[trace.UserID]trace.APID, len(c.sessions))
	for u, s := range c.sessions {
		out[u] = s.ap
	}
	return out
}

// TestAssociateSteadyStateAllocs gates the association fast path: a
// steady-state re-association (same user, new demand) through a
// log-quiet controller must not allocate — the AP view aggregates, the
// request, the placement and the commit all run from pooled scratch.
// Journaled (FsyncOff), a same-AP refresh appends its OpAssoc record
// from the same scratch; at the parent commit Associate allocated once
// there (measured 1.0 objects/op: the record's one-placement slice).
func TestAssociateSteadyStateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops a share of its items under the race detector, so the pooled scratch is reallocated")
	}
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) []ControllerOption
		step float64 // demand change per call; 0 keeps LLF's tie on the user's own AP
	}{
		{"unjournaled", func(*testing.T) []ControllerOption { return nil }, 1},
		{"journaled", func(t *testing.T) []ControllerOption {
			return []ControllerOption{WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff})}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewController(baseline.LLF{}, tc.opts(t)...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 8; i++ {
				if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), 1e6); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ {
				if _, err := c.Associate(trace.UserID(fmt.Sprintf("u-%d", i)), 100); err != nil {
					t.Fatal(err)
				}
			}
			var demand float64 = 100
			assoc := func() trace.APID {
				demand += tc.step
				ap, err := c.Associate("u-0", demand)
				if err != nil {
					t.Fatal(err)
				}
				return ap
			}
			// Warm the pools (and the journal's write buffer).
			home := assoc()
			for i := 0; i < 100; i++ {
				assoc()
			}
			allocs := testing.AllocsPerRun(200, func() {
				if ap := assoc(); tc.step == 0 && ap != home {
					t.Fatalf("refresh moved u-0 from %s to %s", home, ap)
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state Associate allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
