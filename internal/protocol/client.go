package protocol

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// obsAgentReconnects counts successful AP-agent reconnections (client
// side), part of the protocol health counter set.
var obsAgentReconnects = obs.GetCounter("protocol.agent.reconnects",
	"Successful AP-agent reconnections after a lost connection")

// Dialer opens the transport connection for a client. Overriding it lets
// tests inject faulty transports (internal/faults).
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

func defaultDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// ReconnectConfig governs an AP agent's redial behavior after a dropped
// controller connection: exponential backoff from BaseDelay to MaxDelay
// with ±Jitter relative randomization (seeded, so tests are
// deterministic). The zero value disables reconnection.
type ReconnectConfig struct {
	// MaxAttempts is the number of redials tried per failed operation
	// (0 disables reconnection).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2s).
	MaxDelay time.Duration
	// Jitter is the relative randomization of each delay in [0,1]:
	// 0.2 yields delays in [0.8d, 1.2d]. Desynchronizes agent herds
	// reconnecting after a controller restart.
	Jitter float64
	// Seed seeds the jitter source.
	Seed int64
	// Dial overrides the transport dialer (default TCP).
	Dial Dialer
}

// DefaultReconnectConfig is a sensible starting point: 8 attempts,
// 25ms → 2s backoff, 20% jitter.
func DefaultReconnectConfig() ReconnectConfig {
	return ReconnectConfig{
		MaxAttempts: 8,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
		Seed:        1,
	}
}

// APAgent is the client side of a registered access point: it announces
// the AP to the controller and streams load reports. Agents built with
// DialAPReconnecting transparently re-dial and re-hello (renewing their
// lease server-side) when the controller connection drops.
type APAgent struct {
	conn *Conn
	id   trace.APID

	addr        string
	capacityBps float64
	timeout     time.Duration
	rc          ReconnectConfig
	bo          backoff
	reconnects  int64
}

// dialAP opens one agent connection and performs the hello handshake.
func dialAP(dial Dialer, addr string, id trace.APID, capacityBps float64, timeout time.Duration) (*Conn, error) {
	raw, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial: %w", err)
	}
	conn := NewConn(raw, timeout)
	if err := helloAP(conn, id, capacityBps); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// helloAP performs one AP hello exchange on an open connection.
func helloAP(conn *Conn, id trace.APID, capacityBps float64) error {
	if err := conn.Send(Message{
		Type:        MsgHello,
		Role:        RoleAP,
		ID:          string(id),
		CapacityBps: capacityBps,
	}); err != nil {
		return err
	}
	reply, err := conn.Receive()
	if err != nil {
		return err
	}
	if reply.Type == MsgBusy {
		return busyError(&reply)
	}
	if reply.Type == MsgError {
		return fmt.Errorf("protocol: register AP: %s", reply.Error)
	}
	if reply.Type != MsgHelloOK {
		return fmt.Errorf("protocol: unexpected reply %s", reply.Type)
	}
	return nil
}

// DialAP connects an AP agent and registers the AP (no reconnection;
// see DialAPReconnecting for the resilient variant).
func DialAP(addr string, id trace.APID, capacityBps float64, timeout time.Duration) (*APAgent, error) {
	conn, err := dialAP(defaultDial, addr, id, capacityBps, timeout)
	if err != nil {
		return nil, err
	}
	return &APAgent{
		conn:        conn,
		id:          id,
		addr:        addr,
		capacityBps: capacityBps,
		timeout:     timeout,
	}, nil
}

// DialAPReconnecting connects an AP agent that survives controller
// connection drops: a failed Report redials with exponential backoff and
// jitter per rc and re-hellos, which the controller treats as a lease
// renewal of the same registration. The initial dial is retried the same
// way.
func DialAPReconnecting(addr string, id trace.APID, capacityBps float64, timeout time.Duration, rc ReconnectConfig) (*APAgent, error) {
	base, maxDelay := rc.BaseDelay, rc.MaxDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	a := &APAgent{
		id:          id,
		addr:        addr,
		capacityBps: capacityBps,
		timeout:     timeout,
		rc:          rc,
		bo:          newBackoff(base, maxDelay, rc.Jitter, rc.Seed),
	}
	conn, err := dialAP(a.dialer(), addr, id, capacityBps, timeout)
	if err != nil {
		if rerr := a.redial(); rerr != nil {
			return nil, err
		}
		return a, nil
	}
	a.conn = conn
	return a, nil
}

func (a *APAgent) dialer() Dialer {
	if a.rc.Dial != nil {
		return a.rc.Dial
	}
	return defaultDial
}

// redial re-establishes the agent connection with backoff and jitter.
// Every redial starts from BaseDelay; the jitter sequence runs on across
// redials.
func (a *APAgent) redial() error {
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
	a.bo.reset()
	var lastErr error
	for attempt := 0; attempt < a.rc.MaxAttempts; attempt++ {
		conn, err := dialAP(a.dialer(), a.addr, a.id, a.capacityBps, a.timeout)
		if err == nil {
			a.conn = conn
			a.reconnects++
			obsAgentReconnects.Inc()
			return nil
		}
		lastErr = err
		time.Sleep(a.bo.next())
	}
	if lastErr == nil {
		lastErr = errors.New("protocol: reconnect disabled")
	}
	return fmt.Errorf("protocol: reconnect %s: %w", a.id, lastErr)
}

// Report sends one load report. A reconnecting agent treats a send
// failure as a dropped connection: it redials (renewing its lease via a
// fresh hello) and retries the report once on the new connection.
func (a *APAgent) Report(loadBps float64) error {
	m := Message{Type: MsgReport, AP: string(a.id), LoadBps: loadBps}
	var err error
	if a.conn != nil {
		if err = a.conn.Send(m); err == nil {
			return nil
		}
	} else {
		err = errors.New("protocol: agent not connected")
	}
	if a.rc.MaxAttempts <= 0 {
		return err
	}
	if rerr := a.redial(); rerr != nil {
		return fmt.Errorf("%w (after report error: %v)", rerr, err)
	}
	return a.conn.Send(m)
}

// Reconnects returns how many times the agent re-established its
// controller connection.
func (a *APAgent) Reconnects() int64 { return a.reconnects }

// Close disconnects the agent.
func (a *APAgent) Close() error {
	if a.conn == nil {
		return nil
	}
	return a.conn.Close()
}

// APGroup is a single-connection agent fronting several APs: one hello
// per AP registers them all on the same connection, and batched load
// reports travel as one binary frame (one length, one CRC, one write).
// This is the batched-report path for deployments where one agent
// process manages a hardware group of APs.
type APGroup struct {
	conn  *Conn
	ids   []trace.APID
	batch []Message // reusable report batch
}

// APSpec declares one AP of a group agent.
type APSpec struct {
	ID          trace.APID
	CapacityBps float64
}

// DialAPGroup connects one agent connection and registers every AP in
// aps over it. Reports are sent with ReportAll.
func DialAPGroup(addr string, aps []APSpec, timeout time.Duration) (*APGroup, error) {
	if len(aps) == 0 {
		return nil, errors.New("protocol: empty AP group")
	}
	raw, err := defaultDial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial: %w", err)
	}
	conn := NewConn(raw, timeout)
	g := &APGroup{conn: conn}
	for _, ap := range aps {
		if err := helloAP(conn, ap.ID, ap.CapacityBps); err != nil {
			conn.Close()
			return nil, err
		}
		g.ids = append(g.ids, ap.ID)
	}
	return g, nil
}

// ReportAll sends one load report per AP in a single coalesced frame;
// loads is indexed like IDs.
func (g *APGroup) ReportAll(loads []float64) error {
	if len(loads) != len(g.ids) {
		return fmt.Errorf("protocol: group report: %d loads for %d APs", len(loads), len(g.ids))
	}
	g.batch = g.batch[:0]
	for i, id := range g.ids {
		g.batch = append(g.batch, Message{Type: MsgReport, AP: string(id), LoadBps: loads[i]})
	}
	return g.conn.SendBatch(g.batch)
}

// Close disconnects the group agent.
func (g *APGroup) Close() error { return g.conn.Close() }

// Station is the client side of a WLAN user.
type Station struct {
	conn *Conn
	user trace.UserID
	ap   trace.APID
}

// DialStation connects and registers a station.
func DialStation(addr string, user trace.UserID, timeout time.Duration) (*Station, error) {
	return DialStationWith(defaultDial, addr, user, timeout)
}

// DialStationWith is DialStation with an explicit transport dialer
// (tests and chaos harnesses inject faulty transports here).
func DialStationWith(dial Dialer, addr string, user trace.UserID, timeout time.Duration) (*Station, error) {
	raw, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial: %w", err)
	}
	conn := NewConn(raw, timeout)
	if err := conn.Send(Message{Type: MsgHello, Role: RoleStation, ID: string(user)}); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := conn.Receive()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if reply.Type == MsgBusy {
		conn.Close()
		return nil, busyError(&reply)
	}
	if reply.Type == MsgError {
		conn.Close()
		return nil, fmt.Errorf("protocol: register station: %s", reply.Error)
	}
	if reply.Type != MsgHelloOK {
		conn.Close()
		return nil, fmt.Errorf("protocol: unexpected reply %s", reply.Type)
	}
	return &Station{conn: conn, user: user}, nil
}

// Associate requests an AP and returns the controller's assignment.
func (s *Station) Associate(demandBps float64) (trace.APID, error) {
	if err := s.conn.Send(Message{
		Type:      MsgAssoc,
		User:      string(s.user),
		DemandBps: demandBps,
	}); err != nil {
		return "", err
	}
	reply, err := s.conn.Receive()
	if err != nil {
		return "", err
	}
	switch reply.Type {
	case MsgAssign:
		s.ap = trace.APID(reply.AP)
		return s.ap, nil
	case MsgBusy:
		// Shed, not failed: the connection stays usable and the returned
		// *BusyError carries the controller's retry advice.
		return "", busyError(&reply)
	case MsgError:
		return "", fmt.Errorf("protocol: associate: %s", reply.Error)
	default:
		return "", fmt.Errorf("protocol: unexpected reply %s", reply.Type)
	}
}

// AP returns the station's current assignment ("" before Associate).
func (s *Station) AP() trace.APID { return s.ap }

// SendTraffic reports served bytes on the station's current AP.
func (s *Station) SendTraffic(bytes int64) error {
	if s.ap == "" {
		return errors.New("protocol: station not associated")
	}
	return s.conn.Send(Message{Type: MsgTraffic, AP: string(s.ap), Bytes: bytes})
}

// Disassociate announces departure; the connection stays open so the
// station can re-associate later.
func (s *Station) Disassociate() error {
	if s.ap == "" {
		return nil
	}
	s.ap = ""
	return s.conn.Send(Message{Type: MsgDisassoc, User: string(s.user)})
}

// Close disconnects the station (an implicit disassociation server-side).
func (s *Station) Close() error { return s.conn.Close() }
