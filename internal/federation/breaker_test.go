package federation

// Relay circuit-breaker suite: the state machine in isolation (trip
// budget, cooldown, single half-open probe, lease-move reset, gauge
// accounting) and the end-to-end story — a stalled group owner trips
// the front-end's breaker within the failure budget, open-breaker
// refusals are local and fast (<1ms Allow, MsgBusy to the peer), and a
// recovered owner closes the breaker through one half-open probe.

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 100*time.Millisecond)
	b.now = func() time.Time { return now }
	tripsBefore := obsBreakerTrips.Value()
	openBefore := obsBreakerOpen.Value()

	// Closed: everything flows; sub-threshold failures don't trip.
	for i := 0; i < 2; i++ {
		if !b.Allow("owner-a") {
			t.Fatal("closed breaker refused")
		}
		b.Failure()
	}
	if b.Open() {
		t.Fatal("tripped below threshold")
	}
	// Third consecutive failure trips it.
	b.Allow("owner-a")
	b.Failure()
	if !b.Open() {
		t.Fatal("not open at threshold")
	}
	if got := obsBreakerTrips.Value(); got != tripsBefore+1 {
		t.Errorf("trips = %d, want %d", got, tripsBefore+1)
	}
	if got := obsBreakerOpen.Value(); got != openBefore+1 {
		t.Errorf("open gauge = %d, want %d", got, openBefore+1)
	}
	if b.Allow("owner-a") {
		t.Fatal("open breaker admitted inside cooldown")
	}

	// Cooldown elapses: exactly one half-open probe at a time.
	now = now.Add(150 * time.Millisecond)
	if !b.Allow("owner-a") {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.Allow("owner-a") {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure re-opens for another full cooldown.
	b.Failure()
	if !b.Open() {
		t.Fatal("failed probe did not re-open")
	}
	if b.Allow("owner-a") {
		t.Fatal("re-opened breaker admitted")
	}
	// Next probe succeeds: closed, gauge restored, traffic flows freely.
	now = now.Add(150 * time.Millisecond)
	if !b.Allow("owner-a") {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.Open() || !b.Allow("owner-a") || !b.Allow("owner-a") {
		t.Fatal("closed breaker still throttling")
	}
	if got := obsBreakerOpen.Value(); got != openBefore {
		t.Errorf("open gauge after close = %d, want %d", got, openBefore)
	}
}

func TestBreakerResetsOnLeaseMove(t *testing.T) {
	now := time.Unix(2000, 0)
	b := newBreaker(2, time.Hour) // cooldown never elapses in this test
	b.now = func() time.Time { return now }
	openBefore := obsBreakerOpen.Value()
	b.Allow("owner-a")
	b.Failure()
	b.Failure()
	if !b.Open() {
		t.Fatal("not open")
	}
	// The lease moved: the new owner starts with a clean slate, no
	// cooldown to wait out, and the gauge is restored.
	if !b.Allow("owner-b") {
		t.Fatal("breaker still open against the new owner")
	}
	if b.Open() {
		t.Fatal("target change did not reset state")
	}
	if got := obsBreakerOpen.Value(); got != openBefore {
		t.Errorf("open gauge = %d, want %d", got, openBefore)
	}
}

// stallListener wraps accepted connections with a dynamically scheduled
// fault wrapper: while *stalled* is set, every read on the owner side
// hangs long enough to blow any relay deadline without closing the
// transport — the "accepts connections but never answers" failure mode.
type stallListener struct {
	net.Listener
	stalled *atomic.Bool
	seq     atomic.Uint64
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	src := func() faults.ConnConfig {
		if l.stalled.Load() {
			return faults.ConnConfig{ReadStallProb: 1, StallDur: 2 * time.Second}
		}
		return faults.ConnConfig{}
	}
	return faults.WrapConn(c, int64(l.seq.Add(1)), src), nil
}

// TestBreakerTripsOnStalledOwnerAndRecovers is the end-to-end story:
// node-0 relays group-1 peers to node-1; node-1's transport starts
// stalling (alive TCP, no replies), consecutive relay failures trip
// node-0's breaker within the configured budget, an open breaker
// refuses locally with MsgBusy (Allow in well under a millisecond, no
// dial), and once the owner recovers a half-open probe closes the
// breaker and service resumes.
func TestBreakerTripsOnStalledOwnerAndRecovers(t *testing.T) {
	root := t.TempDir()
	names := []string{"node-0", "node-1"}
	own, err := DefaultOwnership(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Bool
	const relayTimeout = 600 * time.Millisecond
	const cooldown = 400 * time.Millisecond
	const threshold = 3
	mk := func(i int) (*Node, string) {
		cfg := Config{
			NodeID:          names[i],
			Root:            root,
			Ownership:       own,
			LeaseTTL:        5 * time.Second,
			NewSelector:     func() wlan.Selector { return baseline.LLF{} },
			Journal:         journal.Options{Fsync: journal.FsyncOff},
			Timeout:         relayTimeout,
			BreakerFailures: threshold,
			BreakerCooldown: cooldown,
		}
		if i == 1 {
			// The owner keeps a generous timeout so its own sessions
			// survive stalls; only the front-end's relay deadline matters.
			cfg.Timeout = 5 * time.Second
			cfg.WrapListener = func(ln net.Listener) net.Listener {
				return &stallListener{Listener: ln, stalled: &stalled}
			}
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return n, addr
	}
	n0, addr0 := mk(0)
	defer n0.Close()
	n1, addr1 := mk(1)
	defer n1.Close()
	for g := 0; g < 2; g++ {
		if _, err := n0.WaitOwner(g, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// An AP and users homed in node-1's group. The AP agent dials its
	// owner directly so the load path stays up independent of relaying;
	// stations go through node-0 so every exchange relays.
	pick := func(mk func(int) string, g int, groupOf func(string) int) string {
		for i := 0; ; i++ {
			if id := mk(i); groupOf(id) == g {
				return id
			}
		}
	}
	apID := pick(func(i int) string { return fmt.Sprintf("brk-ap-%d", i) }, 1,
		func(s string) int { return own.GroupOfAP(trace.APID(s)) })
	userOf := func(i int) trace.UserID {
		return trace.UserID(pick(func(j int) string { return fmt.Sprintf("brk-u-%d-%d", i, j) }, 1,
			func(s string) int { return own.GroupOfUser(trace.UserID(s)) }))
	}
	ap, err := protocol.DialAP(addr1, trace.APID(apID), 10e6, 5*time.Second)
	if err != nil {
		t.Fatalf("AP dial pre-stall: %v", err)
	}
	defer ap.Close()
	st, err := protocol.DialStation(addr0, userOf(0), 2*time.Second)
	if err != nil {
		t.Fatalf("relayed station dial pre-stall: %v", err)
	}
	if _, err := st.Associate(100); err != nil {
		t.Fatalf("relayed associate pre-stall: %v", err)
	}
	st.Close()

	// Owner goes dark. Each relay attempt burns the relay deadline and
	// counts a failure; the breaker must trip within the budget — after
	// at most threshold failed dials the next peer sees MsgBusy.
	stalled.Store(true)
	tripsBefore := obsBreakerTrips.Value()
	refusalsBefore := obsBreakerRefusals.Value()
	var busy *protocol.BusyError
	attempts := 0
	for attempts < threshold+2 {
		attempts++
		_, err := protocol.DialStation(addr0, userOf(attempts), 3*time.Second)
		if err == nil {
			t.Fatal("dial succeeded against a stalled owner")
		}
		if errors.As(err, &busy) {
			break
		}
	}
	if busy == nil {
		t.Fatalf("no MsgBusy after %d attempts; breaker never tripped", attempts)
	}
	if attempts > threshold+1 {
		t.Errorf("breaker tripped after %d attempts, budget is %d", attempts, threshold)
	}
	if busy.RetryAfter != cooldown {
		t.Errorf("busy retry advice = %v, want the cooldown %v", busy.RetryAfter, cooldown)
	}
	if got := obsBreakerTrips.Value(); got != tripsBefore+1 {
		t.Errorf("federation.breaker.trips rose by %d, want 1", got-tripsBefore)
	}
	if obsBreakerRefusals.Value() == refusalsBefore {
		t.Error("federation.breaker.fast_refusals never incremented")
	}

	// Open-state refusal is a local decision: Allow answers in well
	// under a millisecond and an end-to-end refused dial never pays the
	// relay deadline.
	lease, err := n0.leases.Read(1)
	if err != nil || lease == nil {
		t.Fatalf("lease read: %v", err)
	}
	start := time.Now()
	allowed := n0.breakers[1].Allow(lease.Addr)
	allowTook := time.Since(start)
	if allowed {
		t.Fatal("open breaker allowed a relay inside cooldown")
	}
	if allowTook > time.Millisecond {
		t.Errorf("open-breaker Allow took %v, want < 1ms", allowTook)
	}
	start = time.Now()
	_, err = protocol.DialStation(addr0, userOf(100), 3*time.Second)
	refusedTook := time.Since(start)
	if !errors.As(err, &busy) {
		t.Fatalf("open-breaker dial = %v, want *BusyError", err)
	}
	if refusedTook > relayTimeout/2 {
		t.Errorf("fast refusal took %v, want far under the %v relay deadline", refusedTook, relayTimeout)
	}

	// Owner recovers: after the cooldown, one half-open probe reaches it
	// and the breaker closes — peers are served again.
	stalled.Store(false)
	probesBefore := obsBreakerProbes.Value()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := protocol.DialStation(addr0, userOf(200), 2*time.Second)
		if err == nil {
			if _, err := st.Associate(100); err != nil {
				st.Close()
				t.Fatalf("associate after recovery: %v", err)
			}
			st.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after owner came back: %v", err)
		}
		time.Sleep(cooldown / 4)
	}
	if obsBreakerProbes.Value() == probesBefore {
		t.Error("federation.breaker.probes never incremented during recovery")
	}
}

// TestBreakerLearnsAtEstablishment pins *when* the relay reports to
// the breaker: success the moment the owner's first reply lands —
// never at session end. Two consequences under test. First, a session
// established before the owner went dark reports nothing when it
// tears down mid-stall, so it cannot reset a breaker that correctly
// tripped while it ran. Second, a long-lived half-open probe session
// closes the breaker at its first reply, so the rest of the group is
// served while the probe session is still alive instead of being
// fast-refused until that session ends (sessions are indefinite — the
// old session-end reporting could delay recovery forever).
func TestBreakerLearnsAtEstablishment(t *testing.T) {
	root := t.TempDir()
	names := []string{"node-0", "node-1"}
	own, err := DefaultOwnership(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Bool
	const relayTimeout = 600 * time.Millisecond
	const cooldown = 300 * time.Millisecond
	const threshold = 2
	mk := func(i int) (*Node, string) {
		cfg := Config{
			NodeID:          names[i],
			Root:            root,
			Ownership:       own,
			LeaseTTL:        5 * time.Second,
			NewSelector:     func() wlan.Selector { return baseline.LLF{} },
			Journal:         journal.Options{Fsync: journal.FsyncOff},
			Timeout:         relayTimeout,
			BreakerFailures: threshold,
			BreakerCooldown: cooldown,
		}
		if i == 1 {
			cfg.Timeout = 5 * time.Second
			cfg.WrapListener = func(ln net.Listener) net.Listener {
				return &stallListener{Listener: ln, stalled: &stalled}
			}
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return n, addr
	}
	n0, addr0 := mk(0)
	defer n0.Close()
	n1, addr1 := mk(1)
	defer n1.Close()
	for g := 0; g < 2; g++ {
		if _, err := n0.WaitOwner(g, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(mk func(int) string, g int, groupOf func(string) int) string {
		for i := 0; ; i++ {
			if id := mk(i); groupOf(id) == g {
				return id
			}
		}
	}
	apID := pick(func(i int) string { return fmt.Sprintf("est-ap-%d", i) }, 1,
		func(s string) int { return own.GroupOfAP(trace.APID(s)) })
	userOf := func(i int) trace.UserID {
		return trace.UserID(pick(func(j int) string { return fmt.Sprintf("est-u-%d-%d", i, j) }, 1,
			func(s string) int { return own.GroupOfUser(trace.UserID(s)) }))
	}
	ap, err := protocol.DialAP(addr1, trace.APID(apID), 10e6, 5*time.Second)
	if err != nil {
		t.Fatalf("AP dial: %v", err)
	}
	defer ap.Close()

	// A relayed session established while the owner is healthy, kept
	// open across the outage.
	preStall, err := protocol.DialStation(addr0, userOf(0), 2*time.Second)
	if err != nil {
		t.Fatalf("pre-stall station dial: %v", err)
	}
	if _, err := preStall.Associate(100); err != nil {
		t.Fatalf("pre-stall associate: %v", err)
	}

	// Owner goes dark; new relays fail until the breaker trips.
	stalled.Store(true)
	var busy *protocol.BusyError
	for attempts := 0; attempts < threshold+2 && busy == nil; attempts++ {
		_, err := protocol.DialStation(addr0, userOf(attempts+1), 3*time.Second)
		if err == nil {
			t.Fatal("dial succeeded against a stalled owner")
		}
		errors.As(err, &busy)
	}
	if busy == nil {
		t.Fatal("breaker never tripped")
	}

	// Session-end silence: the pre-stall session winding down mid-stall
	// must not reset the tripped breaker (its relay once returned true
	// at session end, spuriously recording a Success right here).
	preStall.Close()
	time.Sleep(relayTimeout + 200*time.Millisecond) // let its relay pumps tear down
	br := n0.breakers[1]
	br.mu.Lock()
	state := br.state
	br.mu.Unlock()
	if state != breakerOpen {
		t.Fatal("pre-stall session teardown reset the tripped breaker")
	}

	// Probe promptness: owner recovers, and the first admitted station
	// is the half-open probe. Its first reply must close the breaker
	// while its session is still open — the next station is served
	// immediately, not after the probe session ends.
	stalled.Store(false)
	var probe *protocol.Station
	deadline := time.Now().Add(10 * time.Second)
	for probe == nil {
		st, err := protocol.DialStation(addr0, userOf(100), 2*time.Second)
		if err == nil {
			if _, err := st.Associate(100); err != nil {
				st.Close()
				t.Fatalf("probe associate: %v", err)
			}
			probe = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after owner came back: %v", err)
		}
		time.Sleep(cooldown / 4)
	}
	defer probe.Close()
	st2, err := protocol.DialStation(addr0, userOf(200), 2*time.Second)
	if err != nil {
		t.Fatalf("station refused while the probe session is still open: %v", err)
	}
	if _, err := st2.Associate(100); err != nil {
		t.Fatalf("associate while the probe session is still open: %v", err)
	}
	st2.Close()
}
