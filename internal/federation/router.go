package federation

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Routing front-end: every replica accepts any peer. The hello names
// the peer (AP agent by AP ID, station by user ID), which hashes to a
// federation group; a locally owned group is served by the local
// controller via HandleSession, anything else is relayed frame by frame
// to whichever node the group's lease names.
//
// The lease file is the routing truth: a relay target is only ever the
// current lease holder, and a node never serves a group it does not
// own — it replies with an error instead of forwarding again, so a
// misrouted connection terminates after one hop instead of looping.
// Clients retry through their normal reconnect path and land on the
// new owner once the lease settles.

// listenRouter starts the router's accept loop: protocol.AcceptLoop,
// the one a controller serves on.
func (n *Node) listenRouter(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("federation: listen: %w", err)
	}
	bound := ln.Addr().String()
	if n.cfg.WrapListener != nil {
		ln = n.cfg.WrapListener(ln)
	}
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		protocol.AcceptLoop(ln, n.stop, n.cfg.Logger, n.serve)
	}()
	return bound, nil
}

// serve routes one accepted connection on a goroutine of its own; a node
// that is shutting down closes it instead.
func (n *Node) serve(raw net.Conn) {
	if !n.trackConn(raw) {
		raw.Close()
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.untrackConn(raw)
		conn := protocol.NewConn(raw, n.cfg.Timeout)
		defer protocol.ContainPanic(n.cfg.Logger, conn)
		n.route(conn)
	}()
}

// route reads the hello, resolves the owning group and either serves
// locally or relays to the lease holder. The hello is read by
// protocol.ReadHello under protocol.DefaultHelloTimeout, as on the
// controller's own accept path, so a peer that connects and says nothing
// cannot pin a router goroutine for the full relay timeout.
func (n *Node) route(conn *protocol.Conn) {
	defer conn.Close()
	hello, err := protocol.ReadHello(conn, protocol.DefaultHelloTimeout)
	if err != nil {
		return
	}
	if hello.Type != protocol.MsgHello {
		conn.Send(protocol.Message{Type: protocol.MsgError,
			Error: fmt.Sprintf("expected hello, got %s", hello.Type)})
		return
	}
	var g int
	switch hello.Role {
	case protocol.RoleAP:
		g = n.cfg.Ownership.GroupOfAP(trace.APID(hello.ID))
	case protocol.RoleStation:
		g = n.cfg.Ownership.GroupOfUser(trace.UserID(hello.ID))
	default:
		conn.Send(protocol.Message{Type: protocol.MsgError,
			Error: fmt.Sprintf("unknown role %q", hello.Role)})
		return
	}

	gs := n.groups[g]
	gs.mu.Lock()
	ctrl, owned := gs.ctrl, gs.role == RoleOwner
	gs.mu.Unlock()
	if owned {
		ctrl.HandleSession(conn, hello)
		return
	}

	l, err := n.leases.Read(g)
	if err != nil || l == nil || l.Addr == "" || l.Owner == n.cfg.NodeID {
		// No owner (yet), or the lease names us before promotion
		// finished: refuse rather than forward — one hop, never a loop.
		conn.Send(protocol.Message{Type: protocol.MsgError,
			Error: fmt.Sprintf("group %d has no live owner; retry", g)})
		return
	}
	// Circuit breaker: while the group's breaker is open, refuse locally
	// with MsgBusy in microseconds instead of paying a dial timeout per
	// peer against a dead owner. A lease move resets the breaker inside
	// Allow; a cooled-down breaker lets this connection through as its
	// half-open probe.
	br := n.breakers[g]
	if !br.Allow(l.Addr) {
		obsBreakerRefusals.Inc()
		conn.Send(protocol.Message{Type: protocol.MsgBusy,
			Error:        fmt.Sprintf("group %d owner circuit open; retry", g),
			RetryAfterMs: int64(br.cooldown / time.Millisecond)})
		return
	}
	n.relay(conn, l.Addr, br.Success, br.Failure)
}

// relay pumps one peer connection to the group owner at addr: the
// hello's frame first, then each direction frame for frame. Frames are
// checked (magic, length, CRC) at this hop and forwarded as they
// arrived, never decoded or re-encoded, so the owner sees the peer's
// frames byte for byte. The relay is transparent: decisions, errors and
// acks all come from the owner.
//
// The group's circuit breaker feeds off the *establishment* outcome:
// established() fires as soon as the owner produces its first reply
// frame (the hello ack or a policy error — either proves a live
// owner), and failed() marks a relay that never got there — the owner
// could not be dialed, refused the hello, or sat silent past the relay
// deadline — before the peer is told: a peer that retries the instant it
// hears the error must meet a breaker that has already counted it.
// Waiting for the first reply is what makes a
// *stalled* owner — one that accepts connections and then hangs —
// count against the breaker budget instead of passing for healthy.
// Nothing after establishment reports to the breaker: relay() itself
// returns only at session end, far too late for a half-open probe's
// verdict, and a session outliving its owner must not reset a breaker
// that correctly tripped while the session ran.
func (n *Node) relay(client *protocol.Conn, addr string, established, failed func()) {
	obsRelays.Inc()
	unreached := func(what string, err error) {
		obsRelayErrors.Inc()
		failed()
		client.Send(protocol.Message{Type: protocol.MsgError, Error: fmt.Sprintf("%s: %v", what, err)})
	}
	raw, err := net.DialTimeout("tcp", addr, n.cfg.Timeout)
	if err != nil {
		unreached("group owner unreachable", err)
		return
	}
	owner := protocol.NewConn(raw, n.cfg.Timeout)
	defer owner.Close()
	if err := owner.SendFrame(client.Frame()); err != nil {
		unreached("relay hello", err)
		return
	}
	first, err := owner.ReceiveFrame()
	if err != nil {
		unreached("relay: owner unresponsive", err)
		return
	}
	established()
	if err := client.SendFrame(first); err != nil {
		obsRelayErrors.Inc()
		return // the owner is fine; the client side failed
	}

	// Downstream pump (owner → client) runs aside; the upstream pump
	// (client → owner) runs here. Either side closing or failing tears
	// both connections down, which unblocks the other pump.
	done := make(chan struct{})
	go func() {
		defer close(done)
		pump(owner, client)
		client.Close()
	}()
	if err := pump(client, owner); err != nil && !errors.Is(err, io.EOF) {
		obsRelayErrors.Inc()
	}
	owner.Close()
	<-done
}

// pump forwards frames from src to dst until either side fails.
func pump(src, dst *protocol.Conn) error {
	for {
		frame, err := src.ReceiveFrame()
		if err != nil {
			return err
		}
		if err := dst.SendFrame(frame); err != nil {
			return err
		}
	}
}

// WaitOwner blocks until some node owns group g's lease (fresh and
// addressed) or the deadline passes — a convenience for tests and the
// s3 proto cluster bring-up to await settling.
func (n *Node) WaitOwner(g int, timeout time.Duration) (*Lease, error) {
	deadline := time.Now().Add(timeout)
	for {
		l, err := n.leases.Read(g)
		if err == nil && l != nil && l.Addr != "" && !l.Expired(n.cfg.nowMs()) {
			return l, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("federation: group %d: no owner within %v", g, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
