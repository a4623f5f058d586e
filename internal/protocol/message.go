package protocol

import (
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
	// MsgHello registers a peer (AP agent or station) after connecting;
	// an agent connection serves one AP and refuses a second hello.
	MsgHello MsgType = "hello"
	// MsgHelloOK acknowledges registration.
	MsgHelloOK MsgType = "hello_ok"
	// MsgReport carries an AP agent's periodic load report; an AP field
	// naming another AP than the connection's is refused.
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
// anything else fails the frame-magic check on the first Receive.
//
// A frame holds exactly one message. A Conn is one heap object: its
// read and output buffers are arrays inside it, sized for a station's
// frames (under 100 bytes); a larger frame grows one of them once. A
// frame is checked and decoded where it was read, and bytes read past it
// wait there for the next receive; Send encodes behind a reserved header
// and seals the frame in place. A decoded string equal to the same field
// of the previous message is that message's string, so a steady-state
// exchange allocates only for a string that changed.
type Conn struct {
	raw     net.Conn
	timeout time.Duration

	last    Message // the message Receive last returned
	rbuf    []byte  // rbuf[f:r] is the last frame read, rbuf[r:w] the bytes after it
	f, r, w int
	out     []byte // the frame Send assembles

	rinl   [128]byte
	outinl [64]byte
}

// NewConn wraps raw — dialed or accepted, the two ends are alike.
// timeout bounds each read/write (0 = no deadline).
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	c := &Conn{raw: raw, timeout: timeout}
	c.rbuf, c.out = c.rinl[:], c.outinl[:0]
	return c
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

// Send writes one message: a frame whose payload is the message count
// (1, one uvarint byte) and the message.
func (c *Conn) Send(m Message) error {
	frame, err := appendMessage(append(journal.BeginFrame(c.out[:0]), 1), &m)
	if err != nil {
		return err
	}
	journal.SealFrame(frame)
	c.out = frame
	return c.SendFrame(frame)
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
// validated, and its one message decoded; a frame declaring any other
// count is refused. io.EOF is returned verbatim on clean close.
func (c *Conn) Receive() (Message, error) {
	if err := c.readFrame(); err != nil {
		return Message{}, err
	}
	m, err := decodePayload(c.rbuf[c.f+journal.FrameHeaderLen:c.r], &c.last)
	if err != nil {
		return Message{}, err
	}
	c.last = m
	return m, nil
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

// Frame returns the frame the last receive read, whole. A relay hands
// on a hello's frame this way.
func (c *Conn) Frame() []byte { return c.rbuf[c.f:c.r] }

// readFrame reads the next frame into rbuf and validates its magic,
// length and CRC. io.EOF is returned verbatim only between frames.
func (c *Conn) readFrame() error {
	c.f = c.r // no frame until a whole one is read
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set read deadline: %w", err)
		}
	}
	if err := c.fill(journal.FrameHeaderLen); err == io.EOF {
		return err
	} else if err != nil {
		return fmt.Errorf("protocol: receive frame header: %w", err)
	}
	hdr := c.rbuf[c.r:]
	if binary.LittleEndian.Uint32(hdr[0:4]) != journal.FrameMagic {
		return fmt.Errorf("protocol: receive: bad frame magic")
	}
	length := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxWireBytes {
		return fmt.Errorf("protocol: receive: frame of %d bytes exceeds %d", length, maxWireBytes)
	}
	n := journal.FrameHeaderLen + int(length)
	if err := c.fill(n); err != nil {
		return fmt.Errorf("protocol: receive frame payload: %w", err)
	}
	frame := c.rbuf[c.r : c.r+n]
	if journal.Checksum(frame[journal.FrameHeaderLen:]) != binary.LittleEndian.Uint32(frame[8:12]) {
		obsCRCErrors.Inc()
		return fmt.Errorf("protocol: receive: frame CRC mismatch")
	}
	c.f, c.r = c.r, c.r+n
	return nil
}

// fill reads until rbuf[r:w] holds at least n bytes. The bytes it holds
// move to the front first when n would not fit after them, into a larger
// buffer when n exceeds this one. An EOF after some but not all of the n
// bytes is io.ErrUnexpectedEOF.
func (c *Conn) fill(n int) error {
	if c.r == c.w || c.r+n > len(c.rbuf) {
		buf := c.rbuf
		if n > len(buf) {
			buf = make([]byte, max(n, 2*len(buf)))
		}
		c.w = copy(buf, c.rbuf[c.r:c.w])
		c.rbuf, c.f, c.r = buf, 0, 0
	}
	for c.w-c.r < n {
		k, err := c.raw.Read(c.rbuf[c.w:])
		if c.w += k; err == io.EOF && c.w > c.r {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && c.w-c.r < n {
			return err
		}
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }
