package faults

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnConfig is a connection fault schedule. Probabilities are per
// operation in [0,1]; the zero value injects nothing.
type ConnConfig struct {
	// DropWriteProb silently discards a write (reported as fully
	// written) — the classic lost report.
	DropWriteProb float64
	// PartialWriteProb writes only a prefix, then closes the transport
	// and returns ErrInjected — a frame torn mid-stream.
	PartialWriteProb float64
	// WriteErrProb fails a write with ErrInjected and closes the
	// transport.
	WriteErrProb float64
	// ReadErrProb fails a read with ErrInjected and closes the
	// transport.
	ReadErrProb float64
	// DelayProb stalls an operation for a uniform duration in
	// (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays (default 5ms when DelayProb > 0).
	MaxDelay time.Duration
	// CloseAfterWrites closes the transport mid-stream after that many
	// successful writes (0 = never).
	CloseAfterWrites int
	// CloseAfterReads closes the transport after that many successful
	// reads (0 = never).
	CloseAfterReads int
	// ReadStallProb stalls a read for StallDur WITHOUT closing the
	// transport — the half-open peer that holds its connection but never
	// produces bytes. Unlike an injected error the caller sees nothing
	// until its own deadline fires, which is exactly the behavior hello
	// timeouts and relay circuit breakers must be tested against.
	ReadStallProb float64
	// StallDur is how long a stalled read hangs before proceeding with
	// the real read (default 1s when ReadStallProb > 0).
	StallDur time.Duration
}

// Conn wraps a net.Conn with a fault schedule. Safe for one concurrent
// reader plus one concurrent writer (the net.Conn contract).
type Conn struct {
	net.Conn
	src func() ConnConfig

	mu     sync.Mutex
	rng    *rand.Rand
	reads  int
	writes int
}

// WrapConn decorates conn with the schedule src yields before every
// operation. seed seeds the decision stream once, so a run replays
// exactly whatever schedule src follows.
func WrapConn(conn net.Conn, seed int64, src func() ConnConfig) *Conn {
	return &Conn{Conn: conn, src: src, rng: rand.New(rand.NewSource(seed))}
}

// decision is one sampled fault outcome.
type decision struct {
	delay   time.Duration
	stall   time.Duration // reads only: hang, then proceed (no close)
	err     bool          // inject an error and close
	partial bool          // write a prefix, then close (writes only)
	drop    bool          // discard the write, report success (writes only)
	closed  bool          // operation quota reached: close mid-stream
}

func (c *Conn) decide(write bool) decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.src()
	var d decision
	if cfg.DelayProb > 0 && c.rng.Float64() < cfg.DelayProb {
		max := cfg.MaxDelay
		if max <= 0 {
			max = 5 * time.Millisecond
		}
		d.delay = time.Duration(c.rng.Int63n(int64(max))) + 1
	}
	if write {
		c.writes++
		if cfg.CloseAfterWrites > 0 && c.writes > cfg.CloseAfterWrites {
			d.closed = true
			return d
		}
		switch {
		case cfg.DropWriteProb > 0 && c.rng.Float64() < cfg.DropWriteProb:
			d.drop = true
		case cfg.PartialWriteProb > 0 && c.rng.Float64() < cfg.PartialWriteProb:
			d.partial = true
		case cfg.WriteErrProb > 0 && c.rng.Float64() < cfg.WriteErrProb:
			d.err = true
		}
		return d
	}
	c.reads++
	if cfg.CloseAfterReads > 0 && c.reads > cfg.CloseAfterReads {
		d.closed = true
		return d
	}
	if cfg.ReadStallProb > 0 && c.rng.Float64() < cfg.ReadStallProb {
		d.stall = cfg.StallDur
		if d.stall <= 0 {
			d.stall = time.Second
		}
	}
	if cfg.ReadErrProb > 0 && c.rng.Float64() < cfg.ReadErrProb {
		d.err = true
	}
	return d
}

// Read applies the read-side fault schedule, then reads from the
// transport. A stalled read hangs for the scheduled duration without
// closing, then proceeds — the caller's own deadline (if any) is what
// eventually fails a stalled connection.
func (c *Conn) Read(p []byte) (int, error) {
	d := c.decide(false)
	time.Sleep(d.delay + d.stall)
	if d.closed || d.err {
		c.Conn.Close()
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

// Write applies the write-side fault schedule, then writes to the
// transport.
func (c *Conn) Write(p []byte) (int, error) {
	d := c.decide(true)
	time.Sleep(d.delay)
	switch {
	case d.closed, d.err:
		c.Conn.Close()
		return 0, ErrInjected
	case d.drop:
		return len(p), nil
	case d.partial:
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, ErrInjected
	}
	return c.Conn.Write(p)
}

// Listener wraps the n-th accepted connection (n = 1, 2, …) in a Conn
// that reads Source, seeded with DeriveSeed(Seed, n-1), so every
// connection draws its own reproducible fault stream.
type Listener struct {
	net.Listener
	Seed   int64
	Source func() ConnConfig

	n atomic.Int64
}

// Accept accepts from the underlying listener and wraps the connection.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.n.Add(1)
	return WrapConn(conn, DeriveSeed(l.Seed, int(n-1)), l.Source), nil
}

// DeriveSeed maps (base, index) to a well-mixed seed using the
// splitmix64 finalizer, so neighbouring indices get uncorrelated
// streams and the mapping is stable across runs and platforms.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// FlakyListener injects transient accept errors: the first FailFirst
// Accept calls fail, and with FailEvery > 0 every FailEvery-th call
// after that fails too. Injected errors satisfy net.Error with
// Temporary() true, mimicking ECONNABORTED/EMFILE bursts; the pending
// connection is not consumed, so a retrying accept loop eventually gets
// it.
type FlakyListener struct {
	net.Listener
	FailFirst int
	FailEvery int

	calls atomic.Int64
}

// Accept fails per the schedule, otherwise accepts from the underlying
// listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	n := int(l.calls.Add(1))
	if n <= l.FailFirst || (l.FailEvery > 0 && (n-l.FailFirst)%l.FailEvery == 0) {
		return nil, tempError{}
	}
	return l.Listener.Accept()
}

// tempError is a transient net.Error.
type tempError struct{}

func (tempError) Error() string   { return "faults: transient accept error" }
func (tempError) Timeout() bool   { return false }
func (tempError) Temporary() bool { return true }
