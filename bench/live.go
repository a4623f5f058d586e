package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// The live workloads share one driver: a single goroutine issuing a
// precomputed schedule with one request in flight (a closed loop with
// one client). Concurrent clients and unconfirmed departures were
// measured and rejected: with two clients identical runs do different
// work (protocol.select.retries 342 vs 477, assoc/s ±9 %).

type opKind uint8

const (
	opArrive opKind = iota // dial + hello, then MsgAssoc → MsgAssign
	opAssoc                // MsgAssoc → MsgAssign on the user's open connection
	opDepart               // MsgDisassoc + barrier; the connection stays open
	opLeave                // MsgDisassoc + barrier + close
	opTick                 // relay3: one lease/follow round on every node
)

// op is one scheduled operation. ts is the controller's clock for it.
type op struct {
	kind   opKind
	user   int32
	ts     int64
	demand float64
}

// ioTimeout bounds every wait of the driver; an operation that exceeds
// it is a failed operation. serverTimeout is the controllers' idle-read
// deadline, set far beyond a run: a station session is a connection
// that stays open and mostly idle, and a controller that timed one out
// would disassociate its user at a wall-clock moment no schedule names.
const (
	ioTimeout     = 10 * time.Second
	serverTimeout = time.Hour
)

// measure is what one timed phase records.
type measure struct {
	assoc  []int64 // ns, MsgAssoc sent → MsgAssign received
	dial   []int64 // ns, connect + hello
	depart []int64 // ns, MsgDisassoc sent → departure applied
	// decisions is the number of association decisions completed.
	decisions int
	// failed is the number of scheduled operations that failed, whatever
	// the reason: no reply, a refusal, an assignment the driver's model
	// does not admit, a departure or hang-up not confirmed. An operation
	// fails at most once.
	failed int
	errs   []string
	hash   uint64
}

func (m *measure) fail(format string, args ...interface{}) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// driver executes a schedule against one listening address.
type driver struct {
	addr     string
	users    []trace.UserID
	clock    *atomic.Int64
	departed *barrier
	tr       *tracer
	timeout  time.Duration // bounds every wait; ioTimeout outside the self-test
	tick     func()        // opTick handler
	mid      func()        // traced run: called half-way through the schedule

	stations []*protocol.Station
	raw      []*net.TCPConn // the stations' sockets, for hangUp
	dialed   *net.TCPConn
	where    []trace.APID // the driver's model of each user's AP
	demand   []float64
	capacity map[trace.APID]float64
	load     map[trace.APID]float64
}

func newDriver(addr string, users []trace.UserID, clock *atomic.Int64,
	departed *barrier, capacity map[trace.APID]float64, tr *tracer) *driver {
	return &driver{
		addr: addr, users: users, clock: clock, departed: departed, tr: tr, timeout: ioTimeout,
		stations: make([]*protocol.Station, len(users)),
		raw:      make([]*net.TCPConn, len(users)),
		where:    make([]trace.APID, len(users)),
		demand:   make([]float64, len(users)),
		capacity: capacity,
		load:     make(map[trace.APID]float64, len(capacity)),
	}
}

// preload tells the driver's model about an association made outside
// the schedule (dense100k's recovered residents).
func (d *driver) preload(user int32, ap trace.APID, demand float64) {
	d.where[user], d.demand[user] = ap, demand
	d.load[ap] += demand
}

// dial is the stations' transport dialer; it keeps the socket so hangUp
// can half-close it.
func (d *driver) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	d.dialed = c.(*net.TCPConn)
	return c, nil
}

func (d *driver) connect(u int32) error {
	i := d.tr.begin(spanDial)
	st, err := protocol.DialStationWith(d.dial, d.addr, d.users[u], d.timeout)
	d.tr.end(i)
	if err != nil {
		return err
	}
	d.stations[u], d.raw[u] = st, d.dialed
	return nil
}

// hangUp ends u's session and returns once the peer has finished with
// it: the write side is closed, the peer's handler sees EOF, cleans up
// and closes its side, and only that EOF coming back ends the wait. A
// handler still running after its user has re-arrived on a new
// connection would disassociate the user again, so the driver never
// leaves one behind — and never polls for it.
func (d *driver) hangUp(u int32) error {
	st, raw := d.stations[u], d.raw[u]
	d.stations[u], d.raw[u] = nil, nil
	defer st.Close()
	if err := raw.CloseWrite(); err != nil {
		return err
	}
	if err := raw.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
		return err
	}
	var b [1]byte
	if n, err := raw.Read(b[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("hang up %s: peer sent %d bytes, %v", d.users[u], n, err)
	}
	return nil
}

// run issues ops in order.
func (d *driver) run(ops []op, m *measure) {
	h := fnv.New64a()
	for i := range ops {
		o := &ops[i]
		if i == len(ops)/2 && d.mid != nil {
			d.mid()
		}
		d.clock.Store(o.ts)
		d.tr.setOp(i)
		switch o.kind {
		case opTick:
			s := d.tr.begin(spanTick)
			d.tick()
			d.tr.end(s)
		case opArrive, opAssoc:
			if o.kind == opArrive {
				start := time.Now()
				if err := d.connect(o.user); err != nil {
					m.fail("op %d: dial %s: %v", i, d.users[o.user], err)
					continue
				}
				m.dial = append(m.dial, int64(time.Since(start)))
			}
			st := d.stations[o.user]
			if st == nil {
				m.fail("op %d: %s has no open session", i, d.users[o.user])
				continue
			}
			s := d.tr.begin(spanAssoc)
			start := time.Now()
			ap, err := st.Associate(o.demand)
			lat := int64(time.Since(start))
			d.tr.end(s)
			if err != nil {
				m.fail("op %d: associate %s: %v", i, d.users[o.user], err)
				continue
			}
			m.assoc = append(m.assoc, lat)
			h.Write([]byte{byte(o.user), byte(o.user >> 8), byte(o.user >> 16), byte(o.user >> 24)})
			h.Write([]byte(ap))
			if err := d.admit(o.user, ap, o.demand); err != nil {
				m.fail("op %d: %v", i, err)
			}
		case opDepart, opLeave:
			st := d.stations[o.user]
			if st == nil || d.where[o.user] == "" {
				m.fail("op %d: %s departs without a session", i, d.users[o.user])
				continue
			}
			s := d.tr.begin(spanDepart)
			start := time.Now()
			want := d.departed.n.Load() + 1
			err := st.Disassociate()
			if err == nil {
				err = d.departed.wait(want, d.timeout)
			}
			m.depart = append(m.depart, int64(time.Since(start)))
			d.tr.end(s)
			d.load[d.where[o.user]] -= d.demand[o.user]
			d.where[o.user], d.demand[o.user] = "", 0
			if o.kind == opLeave {
				if herr := d.hangUp(o.user); err == nil {
					err = herr
				}
			}
			if err != nil {
				m.fail("op %d: departure of %s: %v", i, d.users[o.user], err)
			}
		}
	}
	m.hash = h.Sum64()
	m.decisions = len(m.assoc)
}

// scheduled is the number of operations in ops that can fail: every one
// but the lease/follow rounds.
func scheduled(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].kind != opTick {
			n++
		}
	}
	return n
}

// admit checks one assignment against the driver's model — the AP is
// registered and its believed load admits the demand — and applies it.
func (d *driver) admit(u int32, ap trace.APID, demand float64) error {
	capBps, ok := d.capacity[ap]
	if !ok {
		return fmt.Errorf("%s assigned to unregistered AP %q", d.users[u], ap)
	}
	if prev := d.where[u]; prev != "" {
		d.load[prev] -= d.demand[u]
	}
	over := d.load[ap]+demand > capBps*(1+1e-9)
	d.where[u], d.demand[u] = ap, demand
	d.load[ap] += demand
	if over {
		return fmt.Errorf("%s assigned to %s beyond its capacity", d.users[u], ap)
	}
	return nil
}

// closeAll hangs up every open session.
func (d *driver) closeAll() error {
	var err error
	for u, st := range d.stations {
		if st != nil {
			if herr := d.hangUp(int32(u)); err == nil {
				err = herr
			}
		}
	}
	return err
}

// conservation checks a controller snapshot against the driver's model:
// the same users on the same APs, nobody extra.
func (d *driver) conservation(snap map[trace.APID]protocol.APStatus) error {
	want := 0
	for _, ap := range d.where {
		if ap != "" {
			want++
		}
	}
	got := 0
	on := make(map[trace.UserID]trace.APID, want)
	for ap, st := range snap {
		got += len(st.Users)
		for _, u := range st.Users {
			on[u] = ap
		}
	}
	if got != want {
		return fmt.Errorf("conservation: controller holds %d users, %d sessions are open", got, want)
	}
	for u, ap := range d.where {
		if ap != "" && on[d.users[u]] != ap {
			return fmt.Errorf("conservation: %s is on %q, driver was told %q", d.users[u], on[d.users[u]], ap)
		}
	}
	return nil
}
