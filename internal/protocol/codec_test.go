package protocol

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// codecMessages is a corpus covering every message type and field shape.
var codecMessages = []Message{
	{Type: MsgHello, Role: RoleAP, ID: "ap-1", CapacityBps: 5e6},
	{Type: MsgHello, Role: RoleStation, ID: "u-1"},
	{Type: MsgHelloOK, ID: "ap-1"},
	{Type: MsgReport, LoadBps: 1234.5},
	{Type: MsgReport, AP: "ap-7", LoadBps: 0},
	{Type: MsgAssoc, DemandBps: 100},
	{Type: MsgAssign, User: "u-1", AP: "ap-2", DemandBps: 42.5},
	{Type: MsgTraffic, Bytes: 1 << 40},
	{Type: MsgTraffic, Bytes: 0},
	{Type: MsgDisassoc},
	{Type: MsgError, Error: "boom with spaces and \x00 bytes"},
	{Type: MsgAssign, User: strings.Repeat("u", 300), AP: "ap"},
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, want := range codecMessages {
		payload, err := encodePayload(nil, []Message{want})
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		queue, err := decodePayload(payload, nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if len(queue) != 1 || queue[0] != want {
			t.Errorf("round trip = %+v, want %+v", queue, want)
		}
	}
	// All messages in one payload.
	payload, err := encodePayload(nil, codecMessages)
	if err != nil {
		t.Fatal(err)
	}
	queue, err := decodePayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(queue) != len(codecMessages) {
		t.Fatalf("decoded %d messages, want %d", len(queue), len(codecMessages))
	}
	for i := range queue {
		if queue[i] != codecMessages[i] {
			t.Errorf("message %d = %+v, want %+v", i, queue[i], codecMessages[i])
		}
	}
}

func TestBinaryConnRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := NewConn(server, 0)
		for {
			m, err := c.Receive()
			if err != nil {
				return
			}
			_ = c.Send(m)
		}
	}()
	c := NewConn(client, 0)
	for _, want := range codecMessages {
		if err := c.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
	}
}

// TestSendBatchCoalesces: a batch travels as ONE framed write and is
// received message by message in order.
func TestSendBatchCoalesces(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	writes := &countingConn{Conn: client}
	recvd := make(chan []Message, 1)
	go func() {
		c := NewConn(server, 0)
		var got []Message
		for len(got) < len(codecMessages) {
			m, err := c.Receive()
			if err != nil {
				return
			}
			got = append(got, m)
		}
		recvd <- got
	}()
	c := NewConn(writes, 0)
	if err := c.SendBatch(codecMessages); err != nil {
		t.Fatal(err)
	}
	got := <-recvd
	for i := range got {
		if got[i] != codecMessages[i] {
			t.Errorf("message %d = %+v, want %+v", i, got[i], codecMessages[i])
		}
	}
	if n := writes.writes.Load(); n != 1 {
		t.Errorf("batch of %d messages took %d writes, want 1", len(codecMessages), n)
	}
}

// sendJSONLines plays a peer of the retired JSON-lines encoding: it
// writes lines on a fresh connection and returns what the controller
// answered before it closed the connection.
func sendJSONLines(t *testing.T, addr, lines string) []byte {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte(lines)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(testTimeout))
	// The close may arrive as a reset (the controller leaves most of the
	// lines unread), so only a timeout is a failure here.
	reply, err := io.ReadAll(raw)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("controller kept a JSON-lines peer open (read %q)", reply)
	}
	return reply
}

// TestCodecSniffing: there is one wire encoding and nothing is sniffed.
// A binary station is served; a peer that opens with a JSON line fails
// the frame-magic check and is closed with no MsgHelloOK, before its
// hello reaches a session handler.
func TestCodecSniffing(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	bs, err := DialStation(addr, "u-bin", testTimeout)
	if err != nil {
		t.Fatalf("binary station: %v", err)
	}
	defer bs.Close()
	if _, err := bs.Associate(10); err != nil {
		t.Fatal(err)
	}

	for _, lines := range []string{
		`{"type":"hello","role":"ap","id":"ap-json","capacity_bps":1000000}` + "\n",
		`{"type":"hello","role":"station","id":"u-json"}` + "\n" + `{"type":"assoc","user":"u-json","demand_bps":10}` + "\n",
	} {
		if reply := sendJSONLines(t, addr, lines); len(reply) != 0 {
			t.Errorf("JSON-lines peer got a reply %q, want a bare close", reply)
		}
	}
	snap := c.Snapshot()
	if _, ok := snap["ap-json"]; ok || len(snap) != 1 {
		t.Errorf("a JSON hello registered an AP: %+v", snap)
	}
	if users := snap["ap1"].Users; !reflect.DeepEqual(users, []trace.UserID{"u-bin"}) {
		t.Errorf("ap1 users = %v, want only the binary station", users)
	}
}

// TestHostileNumericsRejected drives NaN/Inf/negative rates and negative
// byte counts at the controller and requires an explicit rejection
// (MsgError + protocol.msg.rejected) instead of the value reaching load
// or served-byte accounting. The /json rows spell the same hostile value
// as JSON lines (which cannot say NaN or Inf): that encoding is no
// longer spoken, so the lines must die at the frame check, unanswered,
// and equally never reach accounting.
func TestHostileNumericsRejected(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	type step struct {
		hello Message // valid session hello, zero Type = the hostile one IS the hello
		msg   Message
		json  string // the same exchange as JSON lines, "" when JSON cannot spell it
	}
	cases := []struct {
		name string
		step step
	}{
		{"hello-negative-capacity",
			step{msg: Message{Type: MsgHello, Role: RoleAP, ID: "evil", CapacityBps: -1},
				json: `{"type":"hello","role":"ap","id":"evil","capacity_bps":-1}` + "\n"}},
		{"hello-nan-capacity",
			step{msg: Message{Type: MsgHello, Role: RoleAP, ID: "evil", CapacityBps: math.NaN()}}},
		{"report-negative-load",
			step{hello: Message{Type: MsgHello, Role: RoleAP, ID: "ap-agent", CapacityBps: 1e6},
				msg: Message{Type: MsgReport, LoadBps: -5},
				json: `{"type":"hello","role":"ap","id":"ap-agent-json","capacity_bps":1000000}` + "\n" +
					`{"type":"report","load_bps":-5}` + "\n"}},
		{"report-inf-load",
			step{hello: Message{Type: MsgHello, Role: RoleAP, ID: "ap-agent", CapacityBps: 1e6},
				msg: Message{Type: MsgReport, LoadBps: math.Inf(1)}}},
		{"assoc-nan-demand",
			step{hello: Message{Type: MsgHello, Role: RoleStation, ID: "u-hostile"},
				msg: Message{Type: MsgAssoc, DemandBps: math.NaN()}}},
		{"assoc-negative-demand",
			step{hello: Message{Type: MsgHello, Role: RoleStation, ID: "u-hostile"},
				msg: Message{Type: MsgAssoc, DemandBps: -100},
				json: `{"type":"hello","role":"station","id":"u-hostile"}` + "\n" +
					`{"type":"assoc","demand_bps":-100}` + "\n"}},
		{"traffic-negative-bytes",
			step{hello: Message{Type: MsgHello, Role: RoleStation, ID: "u-hostile"},
				msg: Message{Type: MsgTraffic, Bytes: -1 << 20},
				json: `{"type":"hello","role":"station","id":"u-hostile"}` + "\n" +
					`{"type":"traffic","bytes":-1048576}` + "\n"}},
	}

	for _, tc := range cases {
		t.Run(tc.name+"/binary", func(t *testing.T) {
			before := obs.Default.GetCounter("protocol.msg.rejected").Value()
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			conn := NewConn(raw, testTimeout)
			if tc.step.hello.Type != "" {
				if err := conn.Send(tc.step.hello); err != nil {
					t.Fatal(err)
				}
				ok, err := conn.Receive()
				if err != nil || ok.Type != MsgHelloOK {
					t.Fatalf("hello reply = %+v, %v", ok, err)
				}
			}
			if err := conn.Send(tc.step.msg); err != nil {
				t.Fatal(err)
			}
			reply, err := conn.Receive()
			if err != nil {
				t.Fatalf("want MsgError reply, got %v", err)
			}
			if reply.Type != MsgError || !strings.Contains(reply.Error, "invalid") {
				t.Errorf("reply = %+v, want invalid-field MsgError", reply)
			}
			if after := obs.Default.GetCounter("protocol.msg.rejected").Value(); after <= before {
				t.Errorf("protocol.msg.rejected did not increase (%d -> %d)", before, after)
			}
		})
		if tc.step.json == "" {
			continue
		}
		t.Run(tc.name+"/json", func(t *testing.T) {
			if reply := sendJSONLines(t, addr, tc.step.json); len(reply) != 0 {
				t.Errorf("JSON-lines peer got a reply %q, want a bare close", reply)
			}
		})
	}

	// None of the hostile values reached accounting, in either spelling.
	snap := c.Snapshot()
	if st := snap["ap1"]; st.ReportedBps != 0 || len(st.Users) != 0 || st.ServedBytes != 0 {
		t.Errorf("hostile values leaked into state: %+v", st)
	}
	for _, id := range []trace.APID{"evil", "ap-agent-json"} {
		if _, ok := snap[id]; ok {
			t.Errorf("AP %s was registered", id)
		}
	}
}

// TestBinaryCRCMismatchDrops: a bit-flipped frame is refused with a CRC
// error and counted, never decoded.
func TestBinaryCRCMismatchDrops(t *testing.T) {
	payload, err := encodePayload(nil, []Message{{Type: MsgReport, LoadBps: 7}})
	if err != nil {
		t.Fatal(err)
	}
	frame := journal.AppendFrame(nil, payload)
	frame[len(frame)-1] ^= 0x01 // corrupt the payload, keep the header

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errs := make(chan error, 1)
	go func() {
		c := NewConn(server, 0)
		_, err := c.Receive()
		errs <- err
	}()
	before := obs.Default.GetCounter("protocol.codec.crc_errors").Value()
	if _, err := client.Write(frame); err != nil {
		t.Fatal(err)
	}
	recvErr := <-errs
	if recvErr == nil || !strings.Contains(strings.ToLower(recvErr.Error()), "crc") {
		t.Errorf("corrupt frame error = %v, want CRC mismatch", recvErr)
	}
	if after := obs.Default.GetCounter("protocol.codec.crc_errors").Value(); after <= before {
		t.Errorf("protocol.codec.crc_errors did not increase (%d -> %d)", before, after)
	}
}

// countingConn counts Write calls to observe coalescing.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func FuzzWireDecode(f *testing.F) {
	for _, m := range codecMessages {
		payload, err := encodePayload(nil, []Message{m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	all, err := encodePayload(nil, codecMessages)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // hostile uvarint count
	f.Add([]byte{0x01, 0x01})                                                 // truncated message
	f.Add(all[:len(all)/2])                                                   // truncated mid-stream

	f.Fuzz(func(t *testing.T, data []byte) {
		queue, err := decodePayload(data, nil)
		if err != nil {
			return // rejected is fine; panics and hangs are the bug class
		}
		// Whatever decoded must survive a re-encode/re-decode round trip.
		// The comparison is over re-encoded bytes, not Message equality:
		// a fuzzed frame may carry NaN float bits, and NaN != NaN.
		re, err := encodePayload(nil, queue)
		if err != nil {
			t.Fatalf("decoded messages failed to re-encode: %v (%+v)", err, queue)
		}
		back, err := decodePayload(re, nil)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		re2, err := encodePayload(nil, back)
		if err != nil {
			t.Fatalf("re-decoded messages failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("round trip diverged:\n%x\n%x", re, re2)
		}
	})
}
