package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

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

// encodePayload appends the frame payload (count + messages) for ms.
// With one message it is what Send frames; with several it is a frame
// Receive refuses.
func encodePayload(dst []byte, ms []Message) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(ms)))
	var err error
	for i := range ms {
		if dst, err = appendMessage(dst, &ms[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, want := range codecMessages {
		payload, err := encodePayload(nil, []Message{want})
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodePayload(payload, &Message{})
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip = %+v, want %+v", got, want)
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

// TestSendBatchCoalesces: each Send is one frame handed to the socket
// in ONE write, and the messages arrive one per Receive, in order.
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
				break
			}
			got = append(got, m)
		}
		recvd <- got
	}()
	c := NewConn(writes, 0)
	for _, m := range codecMessages {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-recvd; !reflect.DeepEqual(got, codecMessages) {
		t.Errorf("received %+v, want %+v", got, codecMessages)
	}
	if n := writes.writes.Load(); n != int64(len(codecMessages)) {
		t.Errorf("%d messages took %d writes, want one each", len(codecMessages), n)
	}
}

// TestReceiveRefusesMultiMessageFrame: a frame is one message. A
// CRC-valid frame declaring another count is refused with an error that
// names the count, and no message of it is delivered.
func TestReceiveRefusesMultiMessageFrame(t *testing.T) {
	two, err := encodePayload(nil, codecMessages[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		payload []byte
		want    string
	}{
		{two, "frame of 2 messages, want 1"},
		{[]byte{0}, "frame of 0 messages, want 1"},
		{[]byte{}, "missing or truncated message count"},
	} {
		c := NewConn(&readConn{r: bytes.NewReader(journal.AppendFrame(nil, tc.payload))}, 0)
		if m, err := c.Receive(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("payload %x: Receive = %+v, %v; want an error naming %q", tc.payload, m, err, tc.want)
		}
	}
}

// TestReceiveReusesRepeatedStrings is the reuse rule's property test: a
// seeded stream whose string fields now repeat the previous message's
// and now change decodes through one Conn, frame after frame, to exactly
// what a fresh Conn decodes from each frame alone, and every repeated
// field is the previous message's string itself, not a copy.
func TestReceiveReusesRepeatedStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	want := make([]Message, 400)
	for i := range want {
		want[i] = Message{Type: wireTypes[1+rng.Intn(len(wireTypes)-1)],
			Role: Role(pick("", "ap", "station")), ID: pick("", "ap-1", "u-1"),
			User: pick("u-1", "u-1", "u-2", strings.Repeat("u", 200)), AP: pick("ap-1", "ap-1", "ap-2", ""),
			Error: pick("", "", "boom"), DemandBps: float64(rng.Intn(3)), Bytes: int64(rng.Intn(2))}
	}
	stream := NewConn(&readConn{r: bytes.NewReader(framesOf(t, want...))}, 0)
	var prev Message
	shared := 0
	for i, sent := range want {
		alone, err := NewConn(&readConn{r: bytes.NewReader(framesOf(t, sent))}, 0).Receive()
		if err != nil {
			t.Fatalf("frame %d alone: %v", i, err)
		}
		got, err := stream.Receive()
		if err != nil {
			t.Fatalf("frame %d on the stream: %v", i, err)
		}
		if got != alone || got != sent {
			t.Fatalf("frame %d: stream decoded %+v, alone %+v, sent %+v", i, got, alone, sent)
		}
		for _, f := range [][2]string{{string(got.Role), string(prev.Role)}, {got.ID, prev.ID},
			{got.User, prev.User}, {got.AP, prev.AP}, {got.Error, prev.Error}} {
			if f[0] == f[1] && f[0] != "" {
				if unsafe.StringData(f[0]) != unsafe.StringData(f[1]) {
					t.Fatalf("frame %d: repeated %q decoded as a copy", i, f[0])
				}
				shared++
			}
		}
		prev = got
	}
	if shared == 0 {
		t.Fatal("the stream never repeated a field")
	}
}

// framesOf frames each message alone, as Send does, back to back.
func framesOf(t *testing.T, ms ...Message) []byte {
	t.Helper()
	var stream []byte
	for _, m := range ms {
		payload, err := encodePayload(nil, []Message{m})
		if err != nil {
			t.Fatal(err)
		}
		stream = journal.AppendFrame(stream, payload)
	}
	return stream
}

// chunkReader hands out its chunks one Read at a time (a chunk larger
// than the caller's buffer over several) and counts the Reads.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestInPlaceReader drives the Conn's read buffer through the ways a
// socket splits a stream: every codec message — one of them larger
// than the inline buffer — arrives intact and in order whether the
// bytes come one at a time, half a buffer at a time, or with EOF on the
// last data, and then the Conn reads io.EOF itself.
func TestInPlaceReader(t *testing.T) {
	stream := framesOf(t, codecMessages...)
	for _, tc := range []struct {
		name string
		r    func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&readConn{r: tc.r(bytes.NewReader(stream))}, 0)
			for i, want := range codecMessages {
				if got, err := c.Receive(); err != nil || got != want {
					t.Fatalf("message %d = %+v, %v; want %+v", i, got, err, want)
				}
			}
			if _, err := c.Receive(); err != io.EOF {
				t.Fatalf("after the last frame: %v, want io.EOF verbatim", err)
			}
		})
	}
}

// TestInPlaceReaderBuffersAhead: one Read that delivers two frames and
// part of a third serves two receives; the third reads the rest.
func TestInPlaceReaderBuffersAhead(t *testing.T) {
	ms := []Message{
		{Type: MsgAssoc, User: "user-000123", DemandBps: 48_000},
		{Type: MsgTraffic, AP: "ap-b03-2", Bytes: 1 << 20},
		{Type: MsgDisassoc, User: "user-000123"},
	}
	stream := framesOf(t, ms...)
	cut := len(stream) - 10
	if cut > len(Conn{}.rinl) {
		t.Fatalf("%d bytes do not fit the %d-byte inline buffer", cut, len(Conn{}.rinl))
	}
	r := &chunkReader{chunks: [][]byte{stream[:cut], stream[cut:]}}
	c := NewConn(&readConn{r: r}, 0)
	for i, want := range ms {
		got, err := c.Receive()
		if err != nil || got != want {
			t.Fatalf("message %d = %+v, %v; want %+v", i, got, err, want)
		}
		if wantReads := [...]int{1, 1, 2}[i]; r.reads != wantReads {
			t.Fatalf("after message %d: %d reads, want %d", i, r.reads, wantReads)
		}
	}
}

// TestInPlaceReaderGrowsOnce: a frame larger than the inline buffer
// grows it once; the small frames after it reuse that buffer and
// allocate nothing.
func TestInPlaceReaderGrowsOnce(t *testing.T) {
	large := framesOf(t, Message{Type: MsgError, Error: strings.Repeat("e", 300)})
	small := framesOf(t, Message{Type: MsgReport, AP: "ap-1", LoadBps: 5})
	src := &chunkReader{chunks: [][]byte{large}}
	c := NewConn(&readConn{r: src}, 0)
	if m, err := c.Receive(); err != nil || len(m.Error) != 300 {
		t.Fatalf("large frame: %+v, %v", m, err)
	}
	if len(c.rbuf) < len(large) {
		t.Fatalf("read buffer holds %d bytes after a %d-byte frame", len(c.rbuf), len(large))
	}
	grown := &c.rbuf[0]
	var script [1][]byte
	receive := func() {
		script[0] = small
		src.chunks = script[:]
		if m, err := c.Receive(); err != nil || m.AP != "ap-1" {
			t.Fatalf("small frame: %+v, %v", m, err)
		}
	}
	receive() // the first small frame decodes a new AP string
	if allocs := testing.AllocsPerRun(100, receive); allocs != 0 {
		t.Errorf("a small frame after a large one allocates %.0f objects, want 0", allocs)
	}
	if &c.rbuf[0] != grown {
		t.Error("the read buffer was replaced after it had grown")
	}
}

// TestInPlaceReaderEOF: EOF between frames is io.EOF itself; EOF inside
// a header or a payload is a truncation, never io.EOF.
func TestInPlaceReaderEOF(t *testing.T) {
	frame := framesOf(t, Message{Type: MsgAssoc, User: "u-1", DemandBps: 10})
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"between frames", frame, ""},
		{"inside header", append(frame[:len(frame):len(frame)], frame[:5]...), "header"},
		{"inside payload", append(frame[:len(frame):len(frame)], frame[:len(frame)-3]...), "payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&readConn{r: bytes.NewReader(tc.stream)}, 0)
			if _, err := c.Receive(); err != nil {
				t.Fatal(err)
			}
			_, err := c.Receive()
			if tc.want == "" {
				if err != io.EOF {
					t.Fatalf("clean close read %v, want io.EOF verbatim", err)
				}
				return
			}
			if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("EOF %s read %v, want an unexpected-EOF error naming the %s", tc.name, err, tc.want)
			}
		})
	}
}

// TestReceiveFrameValidUntilNextReceive: a frame ReceiveFrame returned
// still holds its bytes while the next frame sits buffered behind it, so
// a relay can forward it whole; the next Receive then decodes the next
// frame.
func TestReceiveFrameValidUntilNextReceive(t *testing.T) {
	first := framesOf(t, Message{Type: MsgHello, Role: RoleStation, ID: "u-1"})
	second := Message{Type: MsgAssoc, User: "u-1", DemandBps: 10}
	src := NewConn(&readConn{r: &chunkReader{chunks: [][]byte{append(first, framesOf(t, second)...)}}}, 0)
	frame, err := src.ReceiveFrame()
	if err != nil {
		t.Fatal(err)
	}
	var sent bytes.Buffer
	if err := NewConn(&writeConn{w: &sent}, 0).SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent.Bytes(), first) {
		t.Fatalf("forwarded %x, want the frame %x", sent.Bytes(), first)
	}
	if got, err := src.Receive(); err != nil || got != second {
		t.Fatalf("next receive = %+v, %v; want %+v", got, err, second)
	}
}

// writeConn is a net.Conn whose writes go to w.
type writeConn struct {
	net.Conn
	w io.Writer
}

func (c *writeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// readConn is a net.Conn that reads from r and accepts every write.
type readConn struct {
	net.Conn
	r io.Reader
}

func (c *readConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *readConn) Write(p []byte) (int, error) { return len(p), nil }

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
	f.Add(all) // several messages: refused
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // hostile uvarint count
	f.Add([]byte{0x01, 0x01})                                                 // truncated message
	f.Add(all[:len(all)/2])                                                   // truncated mid-stream

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodePayload(data, &Message{})
		if err != nil {
			return // rejected is fine; panics and hangs are the bug class
		}
		// Whatever decoded must survive a re-encode/re-decode round trip.
		// The comparison is over re-encoded bytes, not Message equality:
		// a fuzzed frame may carry NaN float bits, and NaN != NaN.
		re, err := encodePayload(nil, []Message{m})
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		back, err := decodePayload(re, &Message{})
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		re2, err := encodePayload(nil, []Message{back})
		if err != nil {
			t.Fatalf("re-decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("round trip diverged:\n%x\n%x", re, re2)
		}
	})
}
