package protocol

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Controller health counters, exported through the obs registry so
// tests, the flight recorder and operators can watch lifecycle churn:
// registrations and renewals, moves and rejected traffic reports.
var (
	obsAPRegistered    = obs.GetCounter("protocol.ap.registered", "First-time AP registrations (hello from an unknown AP)")
	obsAPRenewed       = obs.GetCounter("protocol.ap.renewed", "AP re-hellos superseding the previous agent connection")
	obsAssocMoves      = obs.GetCounter("protocol.assoc.moves", "Re-associations that moved a user between APs")
	obsTrafficRejected = obs.GetCounter("protocol.traffic.rejected", "Traffic reports rejected (unassociated user or mismatched AP claim)")
)

// apMeta is the controller's protocol-level metadata for one registered
// AP: the agent-connection lifecycle and the bytes its stations
// reported. All load and membership accounting lives in the shared
// association-domain core (c.dom), whose APs are exactly meta's keys.
type apMeta struct {
	// static entries come from RegisterAP (no agent connection); no
	// agent may take them over.
	static bool
	// gen is the registration generation, bumped on every re-hello so a
	// superseded agent connection can detect it lost ownership.
	gen uint64
	// served is the traffic volume stations reported on this AP.
	served int64
	// agentConn is the live agent connection, if any; a takeover
	// closes it.
	agentConn *Conn
}

// session is one associated user's bookkeeping: the AP the controller
// assigned, when the association began, and the bytes the station has
// reported since, and (live only, never journaled) the station
// connection whose MsgAssoc last placed the user, if one did. A same-AP
// refresh keeps at and served; a move starts a new session.
type session struct {
	ap     trace.APID
	at     int64
	served int64
	conn   *Conn
}

// AssociationObserver is the simulator's observer interface, fed by the
// live controller — e.g. the incremental.Engine learning sociality
// continuously, the paper's future-work deployment mode. Events are
// delivered under the controller's lock, in mutation order, so an
// observer must not call back into the controller, and Disconnect must
// tolerate out-of-order or unknown users (the controller retries nothing).
type AssociationObserver = wlan.AssociationObserver

// Controller is the prototype WLAN controller: a TCP server that
// registers AP agents, receives their load reports, and answers stations'
// association requests by running the configured policy.
//
// All association state — AP registry, per-AP load/user accounting,
// capacity admission, view snapshots, commits — lives in the shared
// association-domain core (internal/domain), the same state machine the
// batch simulator replays traces through; the controller layers the
// protocol lifecycle (agent connections, station sessions,
// served-byte accounting) on top. Every mutation is a journal.Record
// handed to apply (journal.go), live or replayed. Lock order is always
// c.mu before the domain's lock, never the reverse.
type Controller struct {
	selector wlan.Selector
	logger   *log.Logger
	timeout  time.Duration
	observer AssociationObserver
	now      func() int64

	// dom owns all AP association state.
	dom *domain.Domain

	// refreshFn, when set, runs every refreshEvery while serving (see
	// WithRefresher).
	refreshFn    func()
	refreshEvery time.Duration

	// Overload shedding (admission.go). active counts admitted peer
	// connections against admission.MaxConns; assocBucket rate-limits
	// admitted associations when admission.AssocRate > 0.
	admission    Admission
	helloTimeout time.Duration
	assocBucket  *tokenBucket
	active       atomic.Int64

	// Journal wiring (see journal.go): jn is nil while replaying during
	// construction and whenever journaling is disabled, so the append
	// hooks below are free no-ops in both cases.
	journalDir  string
	journalOpts journal.Options
	jn          *journal.Journal
	recovered   *RecoverySummary

	mu       sync.Mutex
	meta     map[trace.APID]*apMeta
	sessions map[trace.UserID]session
	// scr is the association path's scratch, used under c.mu.
	scr assocScratch
	// ckptState and ckptUsers are appendCheckpointLocked's domain export
	// and key-sorting scratch, reused across checkpoints.
	ckptState domain.State
	ckptUsers []trace.UserID

	listeners []net.Listener
	stop      chan struct{}
	wg        sync.WaitGroup
	closed    bool

	// logEnabled gates the hot-path Printf calls: when the logger is the
	// default discard sink, skipping the call avoids materializing the
	// variadic argument slice on every association.
	logEnabled bool
}

// ControllerOption customizes a Controller.
type ControllerOption func(*Controller)

// WithLogger routes controller diagnostics to logger (default: discard).
func WithLogger(logger *log.Logger) ControllerOption {
	return func(c *Controller) {
		c.logger = logger
		c.logEnabled = true
	}
}

// WithTimeout bounds each peer read/write (default 30s).
func WithTimeout(d time.Duration) ControllerOption {
	return func(c *Controller) { c.timeout = d }
}

// WithObserver attaches an association observer (e.g. an online
// sociality learner).
func WithObserver(o AssociationObserver) ControllerOption {
	return func(c *Controller) { c.observer = o }
}

// WithClock overrides the controller's time source (tests).
func WithClock(now func() int64) ControllerOption {
	return func(c *Controller) { c.now = now }
}

// WithRefresher runs fn every interval on a background goroutine while
// the controller is serving — the hook that keeps an incremental
// social-state engine (society/incremental) publishing fresh snapshots
// under a live controller. The goroutine starts with Serve/Listen and
// stops with Close.
func WithRefresher(fn func(), every time.Duration) ControllerOption {
	return func(c *Controller) {
		c.refreshFn = fn
		c.refreshEvery = every
	}
}

// NewController builds a controller around an association policy.
func NewController(selector wlan.Selector, opts ...ControllerOption) (*Controller, error) {
	if selector == nil {
		return nil, errors.New("protocol: nil selector")
	}
	c := &Controller{
		selector:     selector,
		logger:       log.New(io.Discard, "", 0),
		timeout:      30 * time.Second,
		helloTimeout: DefaultHelloTimeout,
		now:          func() int64 { return time.Now().Unix() },
		meta:         make(map[trace.APID]*apMeta),
		sessions:     make(map[trace.UserID]session),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.admission.AssocRate > 0 {
		c.assocBucket = newTokenBucket(c.admission.AssocRate, c.admission.AssocBurst)
	}
	c.dom = domain.New(domain.Config{
		// max(reported, believed): a silent agent still yields sane
		// decisions.
		Mode:    domain.LoadMax,
		ObsName: "live",
	})
	if c.journalDir != "" {
		// Nothing is accepted yet: the locked helpers run without the lock.
		if _, err := c.attachJournalLocked(c.journalDir, c.journalOpts, 0, "replay",
			func(payload []byte, _ uint64) error { return c.restoreCheckpoint(payload) }); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// RegisterAP adds a static AP directly (without an agent connection).
// Useful for fixed topologies and tests. A capacity the wire's gate
// would refuse is refused here before anything runs.
func (c *Controller) RegisterAP(id trace.APID, capacityBps float64) error {
	if id == "" {
		return errors.New("protocol: empty AP id")
	}
	if !validNumber(capacityBps) {
		return fmt.Errorf("protocol: register of AP %q: invalid capacity_bps %v", id, capacityBps)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.meta[id]; dup {
		return fmt.Errorf("protocol: AP %q already registered", id)
	}
	return c.mutateLocked(journal.Record{
		Op: journal.OpRegister, TS: c.now(), AP: id,
		CapacityBps: capacityBps, Static: true,
	})
}

// registerAgent registers (or, on a re-hello, renews) an agent-backed AP.
// A renewal bumps the registration generation and supersedes any previous
// agent connection, which is returned for closing outside the lock — a
// reconnecting agent must not be locked out by its own half-dead
// predecessor.
func (c *Controller) registerAgent(conn *Conn, id trace.APID, capacityBps float64) (uint64, *Conn, error) {
	if id == "" {
		return 0, nil, errors.New("protocol: empty AP id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var old *Conn
	if m, ok := c.meta[id]; ok {
		if m.static {
			return 0, nil, fmt.Errorf("protocol: AP %q statically registered", id)
		}
		old = m.agentConn
		obsAPRenewed.Inc()
	} else {
		obsAPRegistered.Inc()
	}
	if err := c.mutateLocked(journal.Record{
		Op: journal.OpRegister, TS: c.now(), AP: id, CapacityBps: capacityBps,
	}); err != nil {
		return 0, nil, err
	}
	m := c.meta[id]
	m.agentConn = conn
	return m.gen, old, nil
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address. Serve loops run in background goroutines until Close.
func (c *Controller) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("protocol: listen: %w", err)
	}
	return c.Serve(ln), nil
}

// Serve starts accepting peers on an externally created listener and
// returns its address. It allows wrapping the listener (e.g. with the
// internal/faults test harness) before handing it to the controller. A
// controller may serve several listeners at once; Close stops them all.
func (c *Controller) Serve(ln net.Listener) string {
	c.mu.Lock()
	if c.stop == nil || c.closed {
		// First listener of a serving epoch: fresh stop channel, fresh
		// listener set, and the refresher if configured.
		c.stop = make(chan struct{})
		c.closed = false
		c.listeners = c.listeners[:0]
		if c.refreshFn != nil && c.refreshEvery > 0 {
			c.wg.Add(1)
			go c.refreshLoop(c.stop)
		}
	}
	stop := c.stop
	c.listeners = append(c.listeners, ln)
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		AcceptLoop(ln, stop, c.logger, c.admit)
	}()
	return ln.Addr().String()
}

// refreshLoop drives the WithRefresher hook until the controller closes.
func (c *Controller) refreshLoop(stop chan struct{}) {
	defer c.wg.Done()
	tick := time.NewTicker(c.refreshEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			c.refreshFn()
		}
	}
}

// admit starts one accepted peer's session on a goroutine of its own.
// Over the connection cap the peer is shed with an explicit MsgBusy
// instead, also on its own goroutine — the accept loop never blocks on
// a refused peer's socket, and the shed is never a silent close.
func (c *Controller) admit(conn net.Conn) {
	if max := c.admission.MaxConns; max > 0 && c.active.Load() >= int64(max) {
		obsShedConns.Inc()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			sc := NewConn(conn, shedTimeout)
			defer ContainPanic(c.logger, sc)
			c.shed(sc, "connection limit reached")
		}()
		return
	}
	// The gauge moves by atomic deltas, never Set-after-Add: two
	// goroutines interleaving an Add with a Set could publish the older
	// (higher) value and leave the gauge wrong until the next connection
	// event.
	c.active.Add(1)
	obsConnsActive.Add(1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			c.active.Add(-1)
			obsConnsActive.Add(-1)
		}()
		sc := NewConn(conn, c.timeout)
		defer ContainPanic(c.logger, sc)
		c.handle(sc)
	}()
}

// shed refuses one connection with MsgBusy and closes it. The write
// runs under the conn's (shed) deadline, so a stalled client cannot
// block the shedding goroutine; a silent peer gets the refusal too.
func (c *Controller) shed(conn *Conn, reason string) {
	defer conn.Close()
	if err := conn.Send(Message{
		Type:         MsgBusy,
		Error:        reason,
		RetryAfterMs: c.admission.retryAfter(),
	}); err != nil {
		c.logger.Printf("shed: %v", err)
	}
}

// Close stops the listener and waits for peer goroutines to finish.
func (c *Controller) Close() error {
	c.mu.Lock()
	var stop chan struct{}
	if !c.closed {
		c.closed = true
		stop = c.stop
	}
	lns := c.listeners
	c.listeners = nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	var errs []error
	for _, ln := range lns {
		errs = append(errs, ln.Close())
	}
	c.wg.Wait()
	return errors.Join(append(errs, c.closeJournal())...)
}

// handle runs one peer session: read the hello under the hello deadline
// (ReadHello), then dispatch through the same entry point the federation
// router uses (federation.go).
func (c *Controller) handle(conn *Conn) {
	defer conn.Close()
	hello, err := ReadHello(conn, c.helloTimeout)
	if err != nil {
		c.logger.Printf("peer hello: %v", err)
		return
	}
	c.HandleSession(conn, hello)
}

func (c *Controller) replyError(conn *Conn, msg string) {
	if err := conn.Send(Message{Type: MsgError, Error: msg}); err != nil {
		c.logger.Printf("reply error: %v", err)
	}
}

// handleAP registers an AP agent — one AP per agent connection — and
// applies its load reports in the read loop. The loop exits when the
// connection drops (the registration stays, awaiting a reconnect) or
// when a newer agent connection takes the AP over; every exit path
// detaches the
// registration from this connection, so a later supersede never
// "closes" a connection that is already gone.
func (c *Controller) handleAP(conn *Conn, hello Message) {
	id := trace.APID(hello.ID)
	gen, old, err := c.registerAgent(conn, id, hello.CapacityBps)
	if err != nil {
		c.replyError(conn, err.Error())
		return
	}
	if old != nil {
		old.Close()
		c.logger.Printf("ap %s re-hello: superseding previous agent connection", id)
	}
	defer c.agentGone(id, gen)
	if err := conn.Send(Message{Type: MsgHelloOK, ID: hello.ID}); err != nil {
		c.logger.Printf("ap %s: %v", id, err)
		return
	}
	c.logger.Printf("ap %s registered (capacity %.0f B/s, gen %d)", id, hello.CapacityBps, gen)
	for {
		m, err := conn.Receive()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.logger.Printf("ap %s: %v", id, err)
			}
			return
		}
		if verr := validateMessage(&m); verr != nil {
			obsMsgRejected.Inc()
			c.replyError(conn, verr.Error())
			continue
		}
		switch m.Type {
		case MsgHello:
			c.replyError(conn, fmt.Sprintf("agent connection already registered AP %q", id))
		case MsgReport:
			// An empty AP field means the connection's own AP.
			if m.AP != "" && trace.APID(m.AP) != id {
				c.replyError(conn, fmt.Sprintf("report for AP %q not owned by this agent", m.AP))
				continue
			}
			if !c.applyReport(id, gen, m.LoadBps) {
				return // superseded: this connection lost its AP
			}
		default:
			c.replyError(conn, fmt.Sprintf("unexpected %s from AP", m.Type))
			return
		}
	}
}

// applyReport records one agent load report. It returns false when the
// registration was superseded — the reporting connection no longer owns
// that AP.
func (c *Controller) applyReport(rid trace.APID, gen uint64, load float64) bool {
	c.mu.Lock()
	meta, ok := c.meta[rid]
	if !ok || meta.gen != gen {
		c.mu.Unlock()
		return false
	}
	c.dom.SetReported(rid, load)
	c.mu.Unlock()
	return true
}

// agentGone detaches a dropped agent connection from its AP entry. The
// registration itself survives: the AP and its believed users stay in
// the view until a re-hello renews it or the controller restarts.
func (c *Controller) agentGone(id trace.APID, gen uint64) {
	c.mu.Lock()
	if m, ok := c.meta[id]; ok && m.gen == gen {
		m.agentConn = nil
	}
	c.mu.Unlock()
	c.logger.Printf("ap %s agent connection lost (no lease: the AP stays registered)", id)
}

// testStationHook, when set by an in-package test, observes every
// validated station message before dispatch — the injection point the
// panic-containment tests use to detonate inside a handler goroutine.
var testStationHook func(user trace.UserID, m Message)

// handleStation serves one station's association lifecycle.
func (c *Controller) handleStation(conn *Conn, hello Message) {
	user := trace.UserID(hello.ID)
	if user == "" {
		c.replyError(conn, "station hello without id")
		return
	}
	if err := conn.Send(Message{Type: MsgHelloOK, ID: hello.ID}); err != nil {
		return
	}
	for {
		m, err := conn.Receive()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.logger.Printf("station %s: %v", user, err)
			}
			c.disassociate(user, conn)
			return
		}
		if verr := validateMessage(&m); verr != nil {
			obsMsgRejected.Inc()
			c.replyError(conn, verr.Error())
			continue
		}
		if h := testStationHook; h != nil {
			h(user, m)
		}
		switch m.Type {
		case MsgAssoc:
			// Admission: over the association rate the request is shed
			// with MsgBusy on the open connection — the station backs off
			// and retries, it is not disconnected. The bucket gates the
			// request before the policy runs, so shedding costs
			// microseconds regardless of domain contention.
			if c.assocBucket != nil && !c.assocBucket.allow() {
				obsShedAssoc.Inc()
				if err := conn.Send(Message{
					Type:         MsgBusy,
					Error:        "association rate limit",
					RetryAfterMs: c.admission.retryAfter(),
				}); err != nil {
					c.disassociate(user, conn)
					return
				}
				continue
			}
			ap, err := c.associate(user, m.DemandBps, conn)
			if err != nil {
				c.replyError(conn, err.Error())
				continue
			}
			if err := conn.Send(Message{Type: MsgAssign, User: string(user), AP: string(ap)}); err != nil {
				c.disassociate(user, conn)
				return
			}
		case MsgTraffic:
			// Credit the controller's recorded assignment, never the
			// client-claimed AP: a stale or malicious claim must not
			// shift served volume between APs. Traffic from a user with
			// no assignment is rejected (dropped).
			c.mu.Lock()
			s, ok := c.sessions[user]
			if ok {
				s.served = addServed(s.served, m.Bytes)
				c.sessions[user] = s
				if meta := c.meta[s.ap]; meta != nil {
					meta.served = addServed(meta.served, m.Bytes)
				}
			}
			c.mu.Unlock()
			if !ok {
				obsTrafficRejected.Inc()
				c.logger.Printf("station %s: rejected %d bytes of traffic without association", user, m.Bytes)
			}
		case MsgDisassoc:
			c.disassociate(user, nil)
		default:
			c.replyError(conn, fmt.Sprintf("unexpected %s from station", m.Type))
		}
	}
}

// addServed adds a station's traffic report (validated ≥ 0) to a
// served-byte counter, saturating at math.MaxInt64: a report is the
// station's claim, and a wrapped counter would read, and be checkpointed,
// negative.
func addServed(served, n int64) int64 {
	if n > math.MaxInt64-served {
		return math.MaxInt64
	}
	return served + n
}

// assocScratch holds the buffers of the association path: the reusable
// view snapshot and the decision's placement in journal and domain form.
// The controller owns one and uses it under c.mu, so a steady-state
// association performs no heap allocation once the buffer has grown.
type assocScratch struct {
	views domain.ViewBuf
	jp    [1]journal.Placement
	dp    [1]domain.Placement
}

// Associate runs the policy for one user and records the assignment.
//
// The whole decision runs under one hold of c.mu: the view snapshot,
// selector.Select, the commit and its bookkeeping, and the journal
// append. The snapshot is therefore current by construction, and
// concurrent associations serialize.
//
// A re-association that lands on the user's current AP is a demand
// refresh, not a move: the believed demand is replaced atomically, but
// the session, its served-byte tally and the association timestamp stay
// continuous, and no lifecycle events fire — the user never left.
//
// A demand the wire's gate would refuse is refused before the policy
// runs.
func (c *Controller) Associate(user trace.UserID, demandBps float64) (trace.APID, error) {
	if !validNumber(demandBps) {
		return "", fmt.Errorf("protocol: assoc of user %q: invalid demand_bps %v", user, demandBps)
	}
	return c.associate(user, demandBps, nil)
}

// associate is Associate for the station connection by (or none), which
// the session records in the same lock hold.
func (c *Controller) associate(user trace.UserID, demandBps float64, by *Conn) (trace.APID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ap, err := c.placeLocked(wlan.Request{User: user, DemandBps: demandBps})
	if err == nil {
		s := c.sessions[user]
		s.conn = by
		c.sessions[user] = s
	}
	return ap, err
}

// placeLocked is the one association path. It decides req with
// selector.Select against a view snapshot and applies the outcome as an
// OpAssoc record of one placement. Runs with c.mu held.
func (c *Controller) placeLocked(req wlan.Request) (trace.APID, error) {
	req.At = c.now()
	c.dom.ViewsInto(req.User, &c.scr.views)
	views := c.scr.views.Views()
	if len(views) == 0 {
		return "", errors.New("protocol: no APs registered")
	}
	ap, err := c.selector.Select(req, views)
	if err != nil {
		return "", fmt.Errorf("protocol: policy: %w", err)
	}
	// Re-associating routes the previous assignment through Prev: for a
	// move, the removal and the new placement land in one atomic domain
	// commit; for a same-AP refresh, the commit atomically replaces
	// (rather than adds to) the believed demand.
	c.scr.jp[0] = journal.Placement{User: req.User, AP: ap, Prev: c.sessions[req.User].ap, DemandBps: req.DemandBps}
	if err := c.mutateLocked(journal.Record{Op: journal.OpAssoc, TS: req.At, Placements: c.scr.jp[:]}); err != nil {
		if errors.Is(err, domain.ErrUnknownAP) {
			return "", fmt.Errorf("protocol: policy chose unknown AP (%v)", err)
		}
		return "", err
	}
	return ap, nil
}

// disassociate ends user's session. A dropped station connection (nil
// for an explicit disassociation) ends it only if it placed the user or
// none did (a recovered session).
func (c *Controller) disassociate(user trace.UserID, dropped *Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[user]; ok && (dropped == nil || s.conn == nil || s.conn == dropped) {
		// Fails only for a user without a session.
		_ = c.mutateLocked(journal.Record{Op: journal.OpDisassoc, TS: c.now(), User: user, AP: s.ap})
	}
}

// notifyDisconnect delivers one observer disconnect. Runs with c.mu held.
func (c *Controller) notifyDisconnect(user trace.UserID, ap trace.APID, ts int64) {
	if c.observer == nil {
		return
	}
	if err := c.observer.Disconnect(user, ap, ts); err != nil {
		c.logger.Printf("observer disconnect %s: %v", user, err)
	}
}

// Snapshot reports the controller's current state for inspection: per-AP
// associated users and served volume.
func (c *Controller) Snapshot() map[trace.APID]APStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.dom.ExportState(nil)
	out := make(map[trace.APID]APStatus, len(st.APs))
	for _, ap := range st.APs {
		out[ap.ID] = APStatus{
			CapacityBps: ap.CapacityBps,
			ReportedBps: ap.ReportedBps,
			Users:       ap.Users,
			ServedBytes: c.meta[ap.ID].served,
		}
	}
	return out
}

// APStatus is one AP's externally visible state.
type APStatus struct {
	CapacityBps float64
	ReportedBps float64
	Users       []trace.UserID
	ServedBytes int64
}
