package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/runner"
)

// fakeConn is an in-memory net.Conn half for write-side tests.
type fakeConn struct {
	mu     sync.Mutex
	wrote  bytes.Buffer
	closed bool
}

func (f *fakeConn) Read(p []byte) (int, error) { return 0, io.EOF }

func (f *fakeConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, net.ErrClosed
	}
	return f.wrote.Write(p)
}

func (f *fakeConn) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

func (f *fakeConn) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *fakeConn) written() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wrote.Len()
}

func (f *fakeConn) LocalAddr() net.Addr                { return nil }
func (f *fakeConn) RemoteAddr() net.Addr               { return nil }
func (f *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

func wrapStatic(c net.Conn, seed int64, cfg ConnConfig) *Conn {
	return WrapConn(c, seed, Const(cfg))
}

func TestTransparentWithZeroConfig(t *testing.T) {
	fc := &fakeConn{}
	c := wrapStatic(fc, 0, ConnConfig{})
	for i := 0; i < 100; i++ {
		if n, err := c.Write([]byte("hello")); n != 5 || err != nil {
			t.Fatalf("write %d = %d, %v", i, n, err)
		}
	}
	if fc.written() != 500 {
		t.Errorf("underlying got %d bytes, want 500", fc.written())
	}
}

func TestDropWrite(t *testing.T) {
	fc := &fakeConn{}
	c := wrapStatic(fc, 1, ConnConfig{DropWriteProb: 1})
	n, err := c.Write([]byte("lost report"))
	if n != 11 || err != nil {
		t.Fatalf("dropped write = %d, %v; want full length, nil", n, err)
	}
	if fc.written() != 0 {
		t.Errorf("underlying got %d bytes, want 0", fc.written())
	}
}

func TestPartialWriteTearsFrame(t *testing.T) {
	fc := &fakeConn{}
	c := wrapStatic(fc, 1, ConnConfig{PartialWriteProb: 1})
	n, err := c.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 5 || fc.written() != 5 {
		t.Errorf("prefix = %d/%d, want 5/5", n, fc.written())
	}
	if !fc.isClosed() {
		t.Error("transport should be closed after a torn frame")
	}
}

func TestCloseAfterWrites(t *testing.T) {
	fc := &fakeConn{}
	c := wrapStatic(fc, 1, ConnConfig{CloseAfterWrites: 2})
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := c.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write err = %v, want ErrInjected", err)
	}
	if !fc.isClosed() {
		t.Error("transport should be closed mid-stream")
	}
}

func TestReadErr(t *testing.T) {
	fc := &fakeConn{}
	c := wrapStatic(fc, 1, ConnConfig{ReadErrProb: 1})
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	if !fc.isClosed() {
		t.Error("transport should be closed after injected read error")
	}
}

// dropPattern writes n one-byte frames through c, whose transport is
// fc, and reports which of them were dropped.
func dropPattern(t *testing.T, c *Conn, fc *fakeConn, n int) []bool {
	t.Helper()
	dropped := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		before := fc.written()
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		dropped = append(dropped, fc.written() == before)
	}
	return dropped
}

// TestSeededDeterminism: the same seed yields the same fault schedule.
func TestSeededDeterminism(t *testing.T) {
	run := func() []bool {
		fc := &fakeConn{}
		return dropPattern(t, wrapStatic(fc, 42, ConnConfig{DropWriteProb: 0.3}), fc, 200)
	}
	a, b := run(), run()
	anyDrop, anyPass := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at write %d", i)
		}
		anyDrop = anyDrop || a[i]
		anyPass = anyPass || !a[i]
	}
	if !anyDrop || !anyPass {
		t.Errorf("schedule degenerate: drops=%v passes=%v", anyDrop, anyPass)
	}
}

func TestFlakyListenerSchedule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl := &FlakyListener{Listener: ln, FailFirst: 2}
	for i := 0; i < 2; i++ {
		_, err := fl.Accept()
		if err == nil {
			t.Fatalf("accept %d should fail", i)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Temporary() {
			t.Fatalf("accept %d error not transient: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		conn, err := fl.Accept()
		if conn != nil {
			conn.Close()
		}
		done <- err
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dial.Close()
	if err := <-done; err != nil {
		t.Fatalf("accept after schedule: %v", err)
	}
}

// TestDeriveSeedSpreads: the listener's per-connection seeds come from
// runner.DeriveSeed(base, n-1), which must equal the splitmix64
// finalizer at (base, n) that the harness's seeded fault streams are
// defined by, and must give distinct seeds to neighbouring connections.
func TestDeriveSeedSpreads(t *testing.T) {
	finalizer := func(base, i int64) int64 {
		z := uint64(base) + uint64(i)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return int64(z ^ (z >> 31))
	}
	for _, c := range []struct{ base, i int64 }{
		{1, 1}, {7, 2}, {42, 1}, {42, 9}, {1000, 3}, {-3, 1_000_001},
	} {
		if got, want := runner.DeriveSeed(c.base, int(c.i)-1), finalizer(c.base, c.i); got != want {
			t.Errorf("DeriveSeed(%d, %d) = %d, want the finalizer's %d", c.base, c.i-1, got, want)
		}
	}
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		seen[runner.DeriveSeed(1, i)] = true
	}
	if len(seen) != 100 {
		t.Errorf("derived seeds collide: %d unique of 100", len(seen))
	}
}

// TestListenerDerivesSeeds: the n-th accepted connection draws exactly
// the stream of a wrapper seeded runner.DeriveSeed(Seed, n-1), and two
// connections draw different streams.
func TestListenerDerivesSeeds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConnConfig{DropWriteProb: 0.5}
	wrapped := &Listener{Listener: ln, Seed: 42, Source: Const(cfg)}
	defer wrapped.Close()
	var patterns [][]bool
	for n := 1; n <= 2; n++ {
		cl, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sv, err := wrapped.Accept()
		if err != nil {
			t.Fatal(err)
		}
		got := sv.(*Conn)
		defer got.Conn.Close()
		fc := &fakeConn{}
		got.Conn = fc // observe the accepted wrapper's decisions in memory
		pattern := dropPattern(t, got, fc, 64)
		ref := &fakeConn{}
		want := dropPattern(t, wrapStatic(ref, runner.DeriveSeed(42, n-1), cfg), ref, 64)
		for i := range want {
			if pattern[i] != want[i] {
				t.Fatalf("connection %d diverges from DeriveSeed(42, %d) at write %d", n, n-1, i)
			}
		}
		patterns = append(patterns, pattern)
	}
	same := true
	for i := range patterns[0] {
		same = same && patterns[0][i] == patterns[1][i]
	}
	if same {
		t.Error("two accepted connections drew the same fault stream")
	}
}

// TestReadStallHangsWithoutClose: a stalled read hangs for StallDur and
// then proceeds with the real read — the transport stays open, unlike
// every error-injecting mode. This is the half-open-peer primitive the
// hello-timeout and circuit-breaker suites build on.
func TestReadStallHangsWithoutClose(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := wrapStatic(client, 7, ConnConfig{ReadStallProb: 1, StallDur: 50 * time.Millisecond})
	defer c.Close()
	go server.Write([]byte("hi"))
	buf := make([]byte, 2)
	start := time.Now()
	n, err := c.Read(buf)
	if err != nil || n != 2 {
		t.Fatalf("stalled read = %d, %v (stall must not close)", n, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("read returned after %v, want >= 50ms stall", d)
	}
}

// TestWrapDynamicFollowsSource: a wrapper consults its source per
// operation, so flipping the schedule changes behavior mid-stream
// without re-wrapping the connection.
func TestWrapDynamicFollowsSource(t *testing.T) {
	fc := &fakeConn{}
	var mu sync.Mutex
	cfg := ConnConfig{}
	src := func() ConnConfig {
		mu.Lock()
		defer mu.Unlock()
		return cfg
	}
	c := WrapConn(fc, 42, src)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	mu.Lock()
	cfg.WriteErrProb = 1
	mu.Unlock()
	if _, err := c.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted write = %v, want ErrInjected", err)
	}
	if !fc.isClosed() {
		t.Error("injected write error should close the transport")
	}
}
