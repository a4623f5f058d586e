package protocol

import (
	"bufio"
	"encoding/binary"
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
// unused fields cost a flag bit or a length byte on the wire (codec.go).
type Message struct {
	Type MsgType
	// Role and ID identify the peer in a hello.
	Role Role
	ID   string
	// CapacityBps is the AP's bandwidth in a hello (role=ap).
	CapacityBps float64
	// LoadBps is the measured load in a report.
	LoadBps float64
	// User and DemandBps describe an association request.
	User      string
	DemandBps float64
	// AP is the assigned AP in an assign, or the reporting AP.
	AP string
	// Bytes is the served volume in a traffic message.
	Bytes int64
	// Error carries the failure description in an error message.
	Error string
	// RetryAfterMs advises a shed peer (MsgBusy) when to retry.
	RetryAfterMs int64
}

// Conn wraps a net.Conn with message framing and I/O deadlines. Both
// ends speak the framed binary codec (codec.go); a peer that opens with
// anything else fails the frame-magic check on the first Receive. The
// read buffer and the encode scratch live on the Conn and are reused
// across messages, so a steady-state send or receive performs no
// allocation beyond the decoded strings themselves. A message is
// assembled whole in that scratch and handed to the socket in one Write,
// so there is no write buffer, and the read buffer is sized to a
// station's frames (under 100 bytes): larger payloads bypass it
// (io.ReadFull). A controller holds one Conn per connected station.
type Conn struct {
	raw     net.Conn
	br      *bufio.Reader
	timeout time.Duration

	queue   []Message // decoded messages of the current frame
	qpos    int       // next undelivered index into queue
	scratch []byte    // payload scratch
	out     []byte    // framed output scratch
	hdr     [journal.FrameHeaderLen]byte
}

// NewConn wraps raw — dialed or accepted, the two ends are alike.
// timeout bounds each read/write (0 = no deadline).
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return &Conn{raw: raw, br: bufio.NewReaderSize(raw, 512), timeout: timeout}
}

// Codec, CodecBinary and NewConnCodec are what is left of the wire
// codec choice: the benchmark's codec probe (bench/probes.go, frozen
// for this release) still builds its Conn through them. The argument is
// ignored; they go the next time bench/ is open.
type Codec int

const CodecBinary Codec = 0

func NewConnCodec(raw net.Conn, timeout time.Duration, _ Codec) *Conn { return NewConn(raw, timeout) }

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
	c.scratch = binary.AppendUvarint(c.scratch[:0], 1)
	var err error
	if c.scratch, err = appendMessage(c.scratch, &m); err != nil {
		return err
	}
	return c.writeFrame()
}

// SendBatch writes a batch of messages as one frame: one length, one
// CRC, one write. This is the write-coalescing primitive AP group agents
// use for batched load reports.
func (c *Conn) SendBatch(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := c.writeDeadline(); err != nil {
		return err
	}
	var err error
	if c.scratch, err = encodePayload(c.scratch[:0], ms); err != nil {
		return err
	}
	if len(c.scratch) > maxWireBytes {
		return fmt.Errorf("protocol: send batch: frame of %d bytes exceeds %d", len(c.scratch), maxWireBytes)
	}
	return c.writeFrame()
}

// writeFrame frames c.scratch and hands it to the socket in one Write.
func (c *Conn) writeFrame() error {
	c.out = journal.AppendFrame(c.out[:0], c.scratch)
	if _, err := c.raw.Write(c.out); err != nil {
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

// Receive reads one message: a frame is read, its magic, length and CRC
// validated, its messages decoded into the queue and the first popped;
// the rest of a multi-message frame is delivered one per call. io.EOF is
// returned verbatim on clean close.
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

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }
