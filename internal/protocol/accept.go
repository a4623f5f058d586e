package protocol

import (
	"errors"
	"log"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
)

// Connection plumbing shared by the controller and the federation
// router: one accept loop, its retry delay, and one hello read.

var (
	obsAcceptRetries = obs.GetCounter("protocol.accept.retries", "Accept-loop retries after transient listener errors")
	obsHelloTimeout  = obs.GetCounter("protocol.hello.timeout", "Peer connections closed for not completing a hello within the hello deadline")
)

// backoff is a capped exponential delay: next returns base, 2·base, …
// up to max.
type backoff struct {
	base, max, cur time.Duration
}

func newBackoff(base, max time.Duration) backoff {
	return backoff{base: base, max: max, cur: base}
}

// next returns the current delay and doubles it, capped at max.
func (b *backoff) next() time.Duration {
	d := b.cur
	b.cur = min(2*b.cur, b.max)
	return d
}

// reset starts the next round of retries from base.
func (b *backoff) reset() { b.cur = b.base }

// AcceptLoop accepts connections on ln and hands each to serve until
// stop is closed or the listener reports net.ErrClosed. A transient
// Accept error (ECONNABORTED, EMFILE, an injected fault) does not end
// the loop: it is counted in protocol.accept.retries and retried after a
// backoff of 5 ms doubling to 1 s, reset by the next accepted
// connection. serve runs on the accepting goroutine, so it must hand the
// session to a goroutine of its own.
func AcceptLoop(ln net.Listener, stop <-chan struct{}, logger *log.Logger, serve func(net.Conn)) {
	bo := newBackoff(5*time.Millisecond, time.Second)
	for {
		conn, err := ln.Accept()
		if err == nil {
			bo.reset()
			serve(conn)
			continue
		}
		select {
		case <-stop:
			return
		default:
		}
		if errors.Is(err, net.ErrClosed) {
			return
		}
		d := bo.next()
		obsAcceptRetries.Inc()
		logger.Printf("accept (retry in %v): %v", d, err)
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
	}
}

// ReadHello reads a peer's first message under the hello deadline: the
// shorter of helloTimeout (<= 0: none of its own) and the conn's session
// timeout, so a peer that connects and says nothing is cut loose in
// seconds rather than after the full session timeout (slowloris guard).
// A peer that misses the deadline is counted in protocol.hello.timeout.
// The session timeout is restored before ReadHello returns.
func ReadHello(conn *Conn, helloTimeout time.Duration) (Message, error) {
	full := conn.Timeout()
	if helloTimeout > 0 && (full <= 0 || helloTimeout < full) {
		conn.SetTimeout(helloTimeout)
	}
	hello, err := conn.Receive()
	conn.SetTimeout(full)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		obsHelloTimeout.Inc()
	}
	return hello, err
}
