//go:build !race

package protocol

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestStationRoundTripAllocs gates the wire around a steady-state
// decision, as TestAssociateSteadyStateAllocs gates the decision: a
// warmed persistent station over loopback makes at most one allocation
// per Associate round trip (its copy of an AP id that changed), and the
// controller side makes none — measured against a peer that sends the
// same request and reads each reply as an undecoded frame, so every
// allocation counted is the controller's. The race detector allocates
// on its own account, so this file is not built under -race.
func TestStationRoundTripAllocs(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "unjournaled"
		if journaled {
			name = "journaled"
		}
		t.Run(name, func(t *testing.T) {
			var opts []ControllerOption
			if journaled {
				opts = append(opts, WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff}))
			}
			c, err := NewController(baseline.LLF{}, append(opts, WithTimeout(testTimeout))...)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := c.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			for i := 0; i < 8; i++ {
				if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), 1e6); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ {
				if _, err := c.Associate(trace.UserID(fmt.Sprintf("u-%d", i)), 100); err != nil {
					t.Fatal(err)
				}
			}

			st, err := DialStation(addr, "station", testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			station := func() {
				if _, err := st.Associate(500); err != nil {
					t.Fatal(err)
				}
			}

			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			peer := NewConn(raw, testTimeout)
			defer peer.Close()
			if err := peer.Send(Message{Type: MsgHello, Role: RoleStation, ID: "peer"}); err != nil {
				t.Fatal(err)
			}
			if m, err := peer.Receive(); err != nil || m.Type != MsgHelloOK {
				t.Fatalf("peer hello: %+v, %v", m, err)
			}
			demand := 100.0
			controller := func() {
				demand++
				if err := peer.Send(Message{Type: MsgAssoc, User: "peer", DemandBps: demand}); err != nil {
					t.Fatal(err)
				}
				if _, err := peer.ReceiveFrame(); err != nil {
					t.Fatal(err)
				}
			}
			controller()
			if m, err := NewConn(&readConn{r: bytes.NewReader(peer.Frame())}, 0).Receive(); err != nil || m.Type != MsgAssign {
				t.Fatalf("peer's reply: %+v, %v; want an assignment", m, err)
			}

			for i := 0; i < 100; i++ { // warm both connections and the controller's scratch
				station()
				controller()
			}
			if allocs := testing.AllocsPerRun(200, station); allocs > 1 {
				t.Errorf("a station's Associate round trip allocates %.2f objects, want <= 1", allocs)
			}
			if allocs := testing.AllocsPerRun(200, controller); allocs > 0 {
				t.Errorf("the controller allocates %.2f objects per association round trip, want 0", allocs)
			}
		})
	}
}

// TestStationSessionAllocs pins what one station session costs the
// controller's end of the wire: a Conn over a scripted connection receives
// a station hello, sends hello_ok, receives an assoc and sends an
// assignment. Four objects: the script's reader (two), the Conn — its
// buffers and the last message it decoded are inside it — and the user
// id the hello carries, which the assoc's User then shares. A Conn with
// a bufio.Reader and growable buffers and a queue beside it made sixteen.
func TestStationSessionAllocs(t *testing.T) {
	var script []byte
	for _, m := range []Message{
		{Type: MsgHello, Role: RoleStation, ID: "user-000123"},
		{Type: MsgAssoc, User: "user-000123", DemandBps: 48_000},
	} {
		payload, err := encodePayload(nil, []Message{m})
		if err != nil {
			t.Fatal(err)
		}
		script = journal.AppendFrame(script, payload)
	}
	session := func() {
		c := NewConn(&readConn{r: bytes.NewReader(script)}, 0)
		hello, err := c.Receive()
		if err == nil {
			err = c.Send(Message{Type: MsgHelloOK, ID: hello.ID})
		}
		var assoc Message
		if err == nil {
			assoc, err = c.Receive()
		}
		if err == nil {
			err = c.Send(Message{Type: MsgAssign, User: assoc.User, AP: "ap-b03-2"})
		}
		if err != nil || hello.Type != MsgHello || assoc.Type != MsgAssoc {
			t.Fatalf("session: hello %+v, assoc %+v, %v", hello, assoc, err)
		}
	}
	const want = 4
	if allocs := testing.AllocsPerRun(100, session); allocs > want {
		t.Errorf("a station session allocates %.0f objects on the wire, want <= %d", allocs, want)
	}
}

// TestCheckpointSteadyStateAllocs gates the durability path as the tests
// above gate the wire: once a first checkpoint has grown the controller's
// export and frame scratch, a checkpoint of 3 000 residents on 16 APs
// allocates only the file system's fixed handful — the temp file and the
// new segment with their names, the directory listing the prune reads;
// 36 objects, 2 KiB on go1.24 — and nothing per resident. A fresh export
// (two slices per AP) and a per-write 4 KiB buffer made it 82 and 87 KB.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	c, err := NewController(baseline.LLF{}, WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 16; i++ {
		if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap-%02d", i)), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		if _, err := c.Associate(trace.UserID(fmt.Sprintf("user-%05d", i)), 1000); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func() {
		c.mu.Lock() // the State callback runs under c.mu, as from Append
		defer c.mu.Unlock()
		if err := c.jn.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	checkpoint() // both retained checkpoints exist: every prune now lists the same files
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, checkpoint)
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / 21 // AllocsPerRun's warm-up call plus 20
	t.Logf("a steady-state checkpoint: %.0f objects, %d B", allocs, bytesPer)
	const wantObjects, wantBytes = 44, 4096
	if allocs > wantObjects || bytesPer > wantBytes {
		t.Errorf("a steady-state checkpoint allocates %.0f objects, %d B; want <= %d, <= %d B (3 000 residents at 16 B each would be 48 000 B)",
			allocs, bytesPer, wantObjects, wantBytes)
	}
}
