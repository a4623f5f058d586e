package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
)

// MsgType enumerates wire message types.
type MsgType string

// Wire message types.
const (
	// MsgHello registers a peer (AP agent or station) after connecting.
	// An AP agent may send further hellos on the same connection to
	// register additional APs it fronts (an AP group).
	MsgHello MsgType = "hello"
	// MsgHelloOK acknowledges registration.
	MsgHelloOK MsgType = "hello_ok"
	// MsgReport carries an AP agent's periodic load report. On a group
	// connection the AP field names which registered AP it concerns.
	MsgReport MsgType = "report"
	// MsgAssoc is a station's association request.
	MsgAssoc MsgType = "assoc"
	// MsgAssign is the controller's association decision.
	MsgAssign MsgType = "assign"
	// MsgTraffic is a station's served-traffic notification.
	MsgTraffic MsgType = "traffic"
	// MsgDisassoc is a station's departure notification.
	MsgDisassoc MsgType = "disassoc"
	// MsgError reports a protocol or policy failure.
	MsgError MsgType = "error"
	// MsgBusy is the controller's explicit shed signal: the peer was
	// refused for capacity (connection cap, association rate limit, or an
	// open federation circuit breaker), not for a protocol error.
	// RetryAfterMs advises when to try again. Shedding is never silent —
	// a refused peer always gets one of these before close.
	MsgBusy MsgType = "busy"
)

// Role identifies the peer kind in a hello.
type Role string

// Peer roles.
const (
	RoleAP      Role = "ap"
	RoleStation Role = "station"
)

// Message is the single wire message. Fields are used depending on Type;
// unused fields are omitted from both encodings.
type Message struct {
	Type MsgType `json:"type"`
	// Role and ID identify the peer in a hello.
	Role Role   `json:"role,omitempty"`
	ID   string `json:"id,omitempty"`
	// CapacityBps is the AP's bandwidth in a hello (role=ap).
	CapacityBps float64 `json:"capacity_bps,omitempty"`
	// LoadBps is the measured load in a report.
	LoadBps float64 `json:"load_bps,omitempty"`
	// User and DemandBps describe an association request.
	User      string  `json:"user,omitempty"`
	DemandBps float64 `json:"demand_bps,omitempty"`
	// AP is the assigned AP in an assign, or the reporting AP.
	AP string `json:"ap,omitempty"`
	// Bytes is the served volume in a traffic message.
	Bytes int64 `json:"bytes,omitempty"`
	// Error carries the failure description in an error message.
	Error string `json:"error,omitempty"`
	// RetryAfterMs advises a shed peer (MsgBusy) when to retry.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// connMode selects how a Conn resolves its codec.
type connMode int

const (
	// modeClient speaks the codec it was constructed with.
	modeClient connMode = iota
	// modeServerSniff detects the peer's codec from the first byte: a
	// binary frame always starts with 0xF5 (non-ASCII, impossible as the
	// first byte of a JSON document).
	modeServerSniff
	// modeServerJSON is a JSON-only server port (-json-port): a binary
	// first byte is rejected with a clear error instead of a JSON parse
	// failure.
	modeServerJSON
)

// Conn wraps a net.Conn with message framing and I/O deadlines. It
// speaks one of two codecs: line-delimited JSON (debugging, backward
// compatibility) or the framed binary codec (the data-plane default;
// see codec.go). Server-side conns sniff the codec from the peer's
// first byte; client conns choose at dial time. The read buffer and the
// encode scratch live on the Conn and are reused across messages, so a
// steady-state send or receive performs no allocation beyond the decoded
// strings themselves. A message is assembled whole in that scratch and
// handed to the socket in one Write, so there is no write buffer, and the
// read buffer is sized to a station's frames (under 100 bytes): larger
// payloads bypass it (io.ReadFull) and longer lines span it (readLine).
// A controller holds one Conn per connected station.
type Conn struct {
	raw     net.Conn
	br      *bufio.Reader
	enc     *json.Encoder // into jsonOut
	jsonOut bytes.Buffer
	timeout time.Duration

	codec Codec
	mode  connMode

	queue   []Message // decoded messages of the current binary frame
	qpos    int       // next undelivered index into queue
	scratch []byte    // binary payload scratch
	out     []byte    // framed output scratch
	lineBuf []byte    // JSON line scratch
	hdr     [journal.FrameHeaderLen]byte
}

// NewConn wraps raw as a JSON-lines client connection. timeout bounds
// each read/write (0 = no deadline). Kept for backward compatibility;
// NewConnCodec selects the codec explicitly.
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return NewConnCodec(raw, timeout, CodecJSON)
}

// NewConnCodec wraps raw as a client connection speaking codec.
func NewConnCodec(raw net.Conn, timeout time.Duration, codec Codec) *Conn {
	return newConn(raw, timeout, codec, modeClient)
}

// newServerConn wraps an accepted connection. With allowBinary the codec
// is sniffed from the first byte; otherwise the port is JSON-only.
func newServerConn(raw net.Conn, timeout time.Duration, allowBinary bool) *Conn {
	if allowBinary {
		return newConn(raw, timeout, CodecJSON, modeServerSniff)
	}
	obsConnsJSON.Inc()
	return newConn(raw, timeout, CodecJSON, modeServerJSON)
}

func newConn(raw net.Conn, timeout time.Duration, codec Codec, mode connMode) *Conn {
	c := &Conn{
		raw:     raw,
		br:      bufio.NewReaderSize(raw, 512),
		timeout: timeout,
		codec:   codec,
		mode:    mode,
	}
	c.enc = json.NewEncoder(&c.jsonOut)
	return c
}

// Codec returns the connection's negotiated codec. Before a sniffing
// server connection has received its first byte this reports JSON.
func (c *Conn) Codec() Codec { return c.codec }

// SetTimeout changes the per-operation I/O deadline. The hello phase of
// a server connection runs under a shorter deadline than steady-state
// traffic (slowloris guard); the handler widens it back once the peer
// has identified itself.
func (c *Conn) SetTimeout(d time.Duration) { c.timeout = d }

// Timeout returns the per-operation I/O deadline.
func (c *Conn) Timeout() time.Duration { return c.timeout }

// Send writes one message.
func (c *Conn) Send(m Message) error {
	if err := c.writeDeadline(); err != nil {
		return err
	}
	if c.codec == CodecBinary {
		c.scratch = binary.AppendUvarint(c.scratch[:0], 1)
		var err error
		if c.scratch, err = appendMessage(c.scratch, &m); err != nil {
			return err
		}
		return c.writeFrame()
	}
	c.jsonOut.Reset()
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("protocol: send %s: %w", m.Type, err)
	}
	return c.write(c.jsonOut.Bytes())
}

// SendBatch writes a batch of messages as one unit: a single frame
// (one length, one CRC, one write) on the binary codec, a single
// write of every line on JSON. This is the write-coalescing primitive AP
// group agents use for batched load reports.
func (c *Conn) SendBatch(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := c.writeDeadline(); err != nil {
		return err
	}
	if c.codec == CodecBinary {
		var err error
		if c.scratch, err = encodePayload(c.scratch[:0], ms); err != nil {
			return err
		}
		if len(c.scratch) > maxWireBytes {
			return fmt.Errorf("protocol: send batch: frame of %d bytes exceeds %d", len(c.scratch), maxWireBytes)
		}
		return c.writeFrame()
	}
	c.jsonOut.Reset()
	for i := range ms {
		if err := c.enc.Encode(ms[i]); err != nil {
			return fmt.Errorf("protocol: send %s: %w", ms[i].Type, err)
		}
	}
	return c.write(c.jsonOut.Bytes())
}

// writeFrame frames c.scratch and sends it.
func (c *Conn) writeFrame() error {
	c.out = journal.AppendFrame(c.out[:0], c.scratch)
	return c.write(c.out)
}

// write hands one assembled message (or batch) to the socket.
func (c *Conn) write(b []byte) error {
	if _, err := c.raw.Write(b); err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	return nil
}

func (c *Conn) writeDeadline() error {
	if c.timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set write deadline: %w", err)
		}
	}
	return nil
}

// Receive reads one message. io.EOF is returned verbatim on clean close.
// A multi-message binary frame is delivered one message per call; the
// rest queue on the Conn.
func (c *Conn) Receive() (Message, error) {
	if c.qpos < len(c.queue) {
		m := c.queue[c.qpos]
		c.qpos++
		return m, nil
	}
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return Message{}, fmt.Errorf("protocol: set read deadline: %w", err)
		}
	}
	if c.mode != modeClient {
		if err := c.resolveCodec(); err != nil {
			return Message{}, err
		}
	}
	if c.codec == CodecBinary {
		return c.receiveBinary()
	}
	return c.receiveJSON()
}

// Sniff resolves a server connection's codec from the peer's first byte
// without consuming a message, under the conn's read deadline. The shed
// path uses it so a MsgBusy refusal is written in the codec the peer
// actually speaks. No-op on client conns and after the codec resolved.
func (c *Conn) Sniff() error {
	if c.mode == modeClient {
		return nil
	}
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set read deadline: %w", err)
		}
	}
	return c.resolveCodec()
}

// resolveCodec sniffs (or, on a JSON-only port, polices) the peer's
// codec from its first byte. Runs once per connection.
func (c *Conn) resolveCodec() error {
	first, err := c.br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("protocol: receive: %w", err)
	}
	isBinary := first[0] == binaryFirstByte
	switch c.mode {
	case modeServerSniff:
		if isBinary {
			c.codec = CodecBinary
			obsConnsBinary.Inc()
		} else {
			obsConnsJSON.Inc()
		}
	case modeServerJSON:
		if isBinary {
			return fmt.Errorf("protocol: binary frame on JSON-only port")
		}
	}
	c.mode = modeClient
	return nil
}

// receiveBinary reads one frame, validates magic/length/CRC, decodes its
// messages into the queue and pops the first.
func (c *Conn) receiveBinary() (Message, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		if err == io.EOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("protocol: receive frame header: %w", err)
	}
	if binary.LittleEndian.Uint32(c.hdr[0:4]) != journal.FrameMagic {
		return Message{}, fmt.Errorf("protocol: receive: bad frame magic")
	}
	length := binary.LittleEndian.Uint32(c.hdr[4:8])
	if length > maxWireBytes {
		return Message{}, fmt.Errorf("protocol: receive: frame of %d bytes exceeds %d", length, maxWireBytes)
	}
	if cap(c.scratch) < int(length) {
		c.scratch = make([]byte, length)
	}
	payload := c.scratch[:length]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return Message{}, fmt.Errorf("protocol: receive frame payload: %w", err)
	}
	if journal.Checksum(payload) != binary.LittleEndian.Uint32(c.hdr[8:12]) {
		obsCRCErrors.Inc()
		return Message{}, fmt.Errorf("protocol: receive: frame CRC mismatch")
	}
	queue, err := decodePayload(payload, c.queue[:0])
	if err != nil {
		return Message{}, err
	}
	c.queue, c.qpos = queue, 0
	if len(c.queue) == 0 {
		return Message{}, fmt.Errorf("protocol: receive: empty frame")
	}
	c.qpos = 1
	return c.queue[0], nil
}

// receiveJSON reads one newline-terminated JSON document.
func (c *Conn) receiveJSON() (Message, error) {
	line, err := c.readLine()
	if err != nil {
		return Message{}, err
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return Message{}, fmt.Errorf("protocol: decode: %w", err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("protocol: message without type")
	}
	return m, nil
}

// readLine reads one line into the reused line buffer, capped at
// maxWireBytes (the cap the JSON scanner always imposed). io.EOF is
// returned verbatim when the stream ends cleanly between lines.
func (c *Conn) readLine() ([]byte, error) {
	c.lineBuf = c.lineBuf[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		c.lineBuf = append(c.lineBuf, frag...)
		if len(c.lineBuf) > maxWireBytes {
			return nil, fmt.Errorf("protocol: receive: line exceeds %d bytes", maxWireBytes)
		}
		switch err {
		case nil:
			return c.lineBuf[:len(c.lineBuf)-1], nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(c.lineBuf) > 0 {
				return c.lineBuf, nil
			}
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("protocol: receive: %w", err)
		}
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }
