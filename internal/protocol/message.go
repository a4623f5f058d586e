package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
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
// frame buffers and the decoded-message queue live on the Conn and are
// reused across messages, and each decoded string field is checked
// against the same field of the previous message on this Conn: equal
// bytes yield that message's string, so a steady-state send or receive
// allocates only for a string that changed (a station's user id never
// does; an assignment's AP id only when the station moves). A message
// is assembled whole in the output scratch and handed to the socket in
// one Write, so there is no write buffer, and the read buffer is sized
// to a station's frames (under 100 bytes): larger payloads bypass it
// (io.ReadFull). A controller holds one Conn per connected station.
type Conn struct {
	raw     net.Conn
	br      *bufio.Reader
	timeout time.Duration

	queue   []Message // decoded messages of the current frame
	qpos    int       // next undelivered index into queue
	in      []byte    // the current frame, header and payload
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
	c.scratch = binary.AppendUvarint(c.scratch[:0], 1)
	var err error
	if c.scratch, err = appendMessage(c.scratch, &m); err != nil {
		return err
	}
	c.out = journal.AppendFrame(c.out[:0], c.scratch)
	return c.SendFrame(c.out)
}

// SendFrame hands one whole frame to the socket in one Write: Send's,
// or one ReceiveFrame or Frame returned, which a relay forwards as it
// arrived, without decoding it.
func (c *Conn) SendFrame(frame []byte) error {
	if c.timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set write deadline: %w", err)
		}
	}
	if _, err := c.raw.Write(frame); err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	return nil
}

// Receive reads one message: a frame is read, its magic, length and CRC
// validated, its messages decoded into the queue and the first popped;
// the rest of a multi-message frame is delivered one per call. io.EOF is
// returned verbatim on clean close.
func (c *Conn) Receive() (Message, error) {
	if c.qpos < len(c.queue) {
		c.qpos++
		return c.queue[c.qpos-1], nil
	}
	var prev Message
	if len(c.queue) > 0 {
		prev = c.queue[len(c.queue)-1]
	}
	if err := c.readFrame(); err != nil {
		return Message{}, err
	}
	queue, err := decodePayload(c.in[journal.FrameHeaderLen:], c.queue[:0], prev)
	if err != nil {
		return Message{}, err
	}
	if c.queue, c.qpos = queue, 1; len(queue) == 0 {
		return Message{}, fmt.Errorf("protocol: receive: empty frame")
	}
	return queue[0], nil
}

// ReceiveFrame reads the next frame, checked as Receive checks it, and
// returns it whole without decoding it, for SendFrame to forward. The
// slice is valid until the next receive.
func (c *Conn) ReceiveFrame() ([]byte, error) {
	if err := c.readFrame(); err != nil {
		return nil, err
	}
	return c.Frame(), nil
}

// Frame returns the frame the last receive read, whole, and drops the
// messages in it that Receive has not yet delivered: whoever forwards
// the frame forwards them. A relay hands on a hello's frame this way.
func (c *Conn) Frame() []byte {
	c.qpos = len(c.queue)
	return c.in
}

// readFrame reads one frame into c.in and validates its magic, length
// and CRC.
func (c *Conn) readFrame() error {
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set read deadline: %w", err)
		}
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("protocol: receive frame header: %w", err)
	}
	if binary.LittleEndian.Uint32(c.hdr[0:4]) != journal.FrameMagic {
		return fmt.Errorf("protocol: receive: bad frame magic")
	}
	length := binary.LittleEndian.Uint32(c.hdr[4:8])
	if length > maxWireBytes {
		return fmt.Errorf("protocol: receive: frame of %d bytes exceeds %d", length, maxWireBytes)
	}
	n := journal.FrameHeaderLen + int(length) // sized once: one allocation for a new Conn's first frame
	c.in = append(slices.Grow(c.in[:0], n), c.hdr[:]...)[:n]
	payload := c.in[journal.FrameHeaderLen:]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return fmt.Errorf("protocol: receive frame payload: %w", err)
	}
	if journal.Checksum(payload) != binary.LittleEndian.Uint32(c.hdr[8:12]) {
		obsCRCErrors.Inc()
		return fmt.Errorf("protocol: receive: frame CRC mismatch")
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }
