package protocol

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Dialer opens the transport connection for a client. Overriding it lets
// tests inject faulty transports (internal/faults).
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

func defaultDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// dialHello opens one client connection and completes its hello: hello
// goes out, and anything but the controller's MsgHelloOK — a MsgBusy
// shed, a MsgError refusal, a broken connection — closes the connection
// and is returned as the error. what names the peer in a refusal.
func dialHello(dial Dialer, addr string, timeout time.Duration, hello Message, what string) (*Conn, error) {
	raw, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial: %w", err)
	}
	conn := NewConn(raw, timeout)
	err = conn.Send(hello)
	var reply Message
	if err == nil {
		reply, err = conn.Receive()
	}
	if err == nil {
		switch reply.Type {
		case MsgHelloOK:
			return conn, nil
		case MsgBusy:
			err = busyError(&reply)
		case MsgError:
			err = fmt.Errorf("protocol: register %s: %s", what, reply.Error)
		default:
			err = fmt.Errorf("protocol: unexpected reply %s", reply.Type)
		}
	}
	conn.Close()
	return nil, err
}

// APAgent is the client side of a registered access point: it announces
// the AP to the controller and streams load reports over a connection
// that serves that one AP. An agent whose connection drops dials again:
// the controller treats the new hello as a renewal of the same
// registration.
type APAgent struct {
	conn *Conn
	id   trace.APID
}

// DialAP connects an AP agent and registers the AP.
func DialAP(addr string, id trace.APID, capacityBps float64, timeout time.Duration) (*APAgent, error) {
	conn, err := dialHello(defaultDial, addr, timeout,
		Message{Type: MsgHello, Role: RoleAP, ID: string(id), CapacityBps: capacityBps}, "AP")
	if err != nil {
		return nil, err
	}
	return &APAgent{conn: conn, id: id}, nil
}

// Report sends one load report.
func (a *APAgent) Report(loadBps float64) error {
	return a.conn.Send(Message{Type: MsgReport, AP: string(a.id), LoadBps: loadBps})
}

// Close disconnects the agent.
func (a *APAgent) Close() error { return a.conn.Close() }

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
	conn, err := dialHello(dial, addr, timeout,
		Message{Type: MsgHello, Role: RoleStation, ID: string(user)}, "station")
	if err != nil {
		return nil, err
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
