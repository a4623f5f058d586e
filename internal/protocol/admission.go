package protocol

// Overload protection: admission control and panic containment.
//
// The controller degrades gracefully instead of melting: a connection
// cap and an association-rate token bucket shed excess demand with an
// explicit MsgBusy (retry-after) rather than silent drops or unbounded
// queueing; the hello phase runs under a short dedicated deadline
// (ReadHello) so a half-open peer cannot pin an accept goroutine for the
// full session timeout; and a panic in one peer's handler closes that
// peer's connection instead of killing the process. Every shed decision
// is counted, so "the controller refused work" is always visible in
// /metrics.

import (
	"fmt"
	"io"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
)

// Degradation counters: every refused or contained unit of work is
// counted — shedding is never silent.
var (
	obsShedConns   = obs.GetCounter("protocol.shed.conns", "Connections refused with MsgBusy at accept (connection cap reached)")
	obsShedAssoc   = obs.GetCounter("protocol.shed.assoc", "Association requests refused with MsgBusy (token-bucket rate limit)")
	obsPanics      = obs.GetCounter("protocol.panics", "Panics recovered in per-connection handlers (connection closed, process survived)")
	obsConnsActive = obs.GetGauge("protocol.conns.active", "Peer connections currently admitted and being served")
)

// DefaultHelloTimeout bounds the hello phase of an accepted connection:
// a peer that connects and then says nothing is cut loose after this
// long (slowloris guard), independent of the much longer steady-state
// conn timeout.
const DefaultHelloTimeout = 3 * time.Second

// defaultRetryAfter is the MsgBusy retry advice when Admission leaves
// RetryAfterMs zero.
const defaultRetryAfter = 1000 * time.Millisecond

// shedTimeout bounds the shed's MsgBusy write so a stalled client cannot
// hold a shedding goroutine.
const shedTimeout = time.Second

// Admission configures the controller's overload shedding. The zero
// value admits everything (no cap, no rate limit).
type Admission struct {
	// MaxConns caps concurrently served peer connections; excess
	// connections receive MsgBusy and are closed (0 = unlimited).
	MaxConns int
	// AssocRate limits admitted association requests per second across
	// all stations, via a token bucket; excess requests receive MsgBusy
	// on the station's open connection (0 = unlimited).
	AssocRate float64
	// AssocBurst is the token bucket depth — how many back-to-back
	// associations a quiet controller absorbs before the rate applies
	// (default: max(1, AssocRate)).
	AssocBurst int
	// RetryAfterMs is the retry advice carried in every MsgBusy
	// (default 1000).
	RetryAfterMs int64
}

// retryAfter resolves the MsgBusy retry advice.
func (a Admission) retryAfter() int64 {
	if a.RetryAfterMs > 0 {
		return a.RetryAfterMs
	}
	return int64(defaultRetryAfter / time.Millisecond)
}

// WithAdmission enables overload shedding (see Admission).
func WithAdmission(a Admission) ControllerOption {
	return func(c *Controller) { c.admission = a }
}

// ContainPanic recovers a panicking connection handler: the panic is
// counted, logged with its stack, and the peer's connection closed; the
// process survives. Use deferred, as the outermost frame of any
// per-connection goroutine:
//
//	defer ContainPanic(logger, conn)
//
// A panic mid-handler can strand that one peer's session state — the
// containment guarantee is process survival and connection closure, not
// transactional rollback.
func ContainPanic(logger *log.Logger, conn io.Closer) {
	r := recover()
	if r == nil {
		return
	}
	obsPanics.Inc()
	if logger != nil {
		logger.Printf("panic in connection handler (contained): %v\n%s", r, debug.Stack())
	}
	if conn != nil {
		conn.Close()
	}
}

// BusyError is the client-side spelling of a MsgBusy refusal: the
// controller shed the request for capacity, and RetryAfter advises when
// to try again.
type BusyError struct {
	RetryAfter time.Duration
	// Reason is the controller's human-readable shed reason.
	Reason string
}

// Error implements error.
func (e *BusyError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("protocol: busy (%s), retry after %v", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("protocol: busy, retry after %v", e.RetryAfter)
}

// busyError builds the client-side error for a received MsgBusy.
func busyError(m *Message) *BusyError {
	return &BusyError{
		RetryAfter: time.Duration(m.RetryAfterMs) * time.Millisecond,
		Reason:     m.Error,
	}
}

// tokenBucket is a monotonic-clock token bucket. Safe for concurrent
// use; the steady-state allow path performs no allocation.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst <= 0 {
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	b := &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
	b.last = b.now()
	return b
}

// allow consumes one token if available.
func (b *tokenBucket) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.now()
	if dt := n.Sub(b.last); dt > 0 {
		b.tokens += float64(dt.Seconds() * b.rate)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = n
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
