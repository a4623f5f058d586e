package faults

import (
	"net"
	"testing"
	"time"
)

// fakeClock drives an engine from a settable clock.
func fakeClock(e *Engine, base time.Time) *time.Time {
	now := base
	e.now = func() time.Time { return now }
	return &now
}

func TestPhaseAtAndTerminal(t *testing.T) {
	e := NewEngine([]Phase{
		{Dur: 100 * time.Millisecond, Conn: ConnConfig{DropWriteProb: 0.1}},
		{Dur: 200 * time.Millisecond},
		{Conn: ConnConfig{ReadErrProb: 1}},
	})
	base := time.Unix(500, 0)
	now := fakeClock(e, base)
	e.Start()
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{99 * time.Millisecond, 0},
		{100 * time.Millisecond, 1},
		{299 * time.Millisecond, 1},
		{300 * time.Millisecond, 2},
		{time.Hour, 2}, // terminal phase applies forever
	}
	for _, tc := range cases {
		*now = base.Add(tc.d)
		if got := e.PhaseIndex(); got != tc.want {
			t.Errorf("phase at %v = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestEnginePhaseClock drives the engine with a fake clock and checks
// the active schedule flips at phase boundaries.
func TestEnginePhaseClock(t *testing.T) {
	e := NewEngine([]Phase{
		{Dur: time.Second},
		{Dur: time.Second, Conn: ConnConfig{DropWriteProb: 1}},
		{},
	})
	base := time.Unix(1000, 0)
	now := fakeClock(e, base)
	e.Start()
	if e.PhaseIndex() != 0 || e.Config().DropWriteProb != 0 {
		t.Fatalf("phase at t=0: %d %+v", e.PhaseIndex(), e.Config())
	}
	*now = base.Add(1500 * time.Millisecond)
	if e.PhaseIndex() != 1 || e.Config().DropWriteProb != 1 {
		t.Fatalf("phase at t=1.5s: %d %+v", e.PhaseIndex(), e.Config())
	}
	*now = base.Add(5 * time.Second)
	if e.PhaseIndex() != 2 || e.Config() != (ConnConfig{}) {
		t.Fatalf("phase at t=5s: %d %+v", e.PhaseIndex(), e.Config())
	}
}

// TestEngineDynamicConn proves an engine-scheduled connection changes
// behavior across a phase flip without being re-wrapped: writes succeed
// in the clean phase, fail once the fault phase begins, and the
// connection is the same object throughout.
func TestEngineDynamicConn(t *testing.T) {
	e := NewEngine([]Phase{{Dur: time.Second}, {Conn: ConnConfig{WriteErrProb: 1}}})
	base := time.Unix(2000, 0)
	now := fakeClock(e, base)
	e.Start()

	client, server := net.Pipe()
	defer server.Close()
	wrapped := WrapConn(client, 1, e.Config)
	defer wrapped.Close()
	go func() { // sink
		buf := make([]byte, 64)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := wrapped.Write([]byte("ok")); err != nil {
		t.Fatalf("clean-phase write: %v", err)
	}
	*now = base.Add(2 * time.Second)
	if _, err := wrapped.Write([]byte("boom")); err == nil {
		t.Fatal("fault-phase write should fail")
	}
}

// TestEngineListener checks a listener reading the engine hands out
// fault-injecting wrappers.
func TestEngineListener(t *testing.T) {
	e := NewEngine([]Phase{{}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &Listener{Listener: ln, Seed: 1, Source: e.Config}
	defer wrapped.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := wrapped.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sv := <-done
	if sv == nil {
		t.Fatal("accept failed")
	}
	defer sv.Close()
	if _, ok := sv.(*Conn); !ok {
		t.Fatalf("accepted conn is %T, want *Conn", sv)
	}
}
