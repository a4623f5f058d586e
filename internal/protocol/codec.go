package protocol

// Binary wire codec. The controller's data plane reuses the journal's
// magic|length|CRC-32C framing and its field primitives (strings,
// floats, varints: internal/journal/wire.go): one frame carries one
// Message, behind a count that is always 1. A federation relay forwards
// frames whole (ReceiveFrame/SendFrame). It is the only
// encoding either end speaks: a peer that opens with anything but a
// frame fails the magic check.
//
// Message layout inside a frame payload:
//
//	uvarint  message count, 1 (any other count is refused)
//	byte     type  (wireType enum)
//	byte     flags (bit0 CapacityBps, bit1 LoadBps, bit2 DemandBps,
//	                bit3 Bytes, bit4 RetryAfterMs)
//	string   Role, ID, User, AP, Error   (uvarint length + raw bytes)
//	float64  CapacityBps, LoadBps, DemandBps (8-byte LE bits, if flagged)
//	varint   Bytes, RetryAfterMs (zigzag, if flagged)
//
// Absent numeric fields cost one flag bit; absent strings cost one byte.
// The encoding is order-fixed and versionless: the framing (magic + CRC)
// rejects foreign bytes, and a wire type or flag bit an older peer does
// not know is a hard decode error there (docs/ARCHITECTURE.md,
// "Mixed-version rollout", says in which order to upgrade).

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
)

// Codec-boundary health counters: what the ingress validation rejected.
var (
	obsCRCErrors   = obs.GetCounter("protocol.codec.crc_errors", "Binary frames dropped for a CRC-32C mismatch")
	obsMsgRejected = obs.GetCounter("protocol.msg.rejected", "Messages rejected at the codec boundary (hostile numerics or malformed fields)")
)

// maxWireBytes bounds one frame payload.
const maxWireBytes = 1 << 20

// wireTypes is the binary spelling of MsgType: a type's index (0 is no
// type).
var wireTypes = [...]MsgType{
	1: MsgHello,
	2: MsgHelloOK,
	3: MsgReport,
	4: MsgAssoc,
	5: MsgAssign,
	6: MsgTraffic,
	7: MsgDisassoc,
	8: MsgError,
	9: MsgBusy,
}

// Field-presence flags.
const (
	flagCapacity = 1 << iota
	flagLoad
	flagDemand
	flagBytes
	flagRetry
)

// appendMessage appends one encoded message to dst.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	wt := slices.Index(wireTypes[:], m.Type)
	if wt <= 0 {
		return dst, fmt.Errorf("protocol: encode: unknown message type %q", m.Type)
	}
	flags := journal.FlagIf(m.CapacityBps != 0, flagCapacity) | journal.FlagIf(m.LoadBps != 0, flagLoad) |
		journal.FlagIf(m.DemandBps != 0, flagDemand) | journal.FlagIf(m.Bytes != 0, flagBytes) |
		journal.FlagIf(m.RetryAfterMs != 0, flagRetry)
	dst = append(dst, byte(wt), flags)
	dst = journal.AppendString(dst, string(m.Role))
	dst = journal.AppendString(dst, m.ID)
	dst = journal.AppendString(dst, m.User)
	dst = journal.AppendString(dst, m.AP)
	dst = journal.AppendString(dst, m.Error)
	if flags&flagCapacity != 0 {
		dst = journal.AppendFloat(dst, m.CapacityBps)
	}
	if flags&flagLoad != 0 {
		dst = journal.AppendFloat(dst, m.LoadBps)
	}
	if flags&flagDemand != 0 {
		dst = journal.AppendFloat(dst, m.DemandBps)
	}
	if flags&flagBytes != 0 {
		dst = binary.AppendVarint(dst, m.Bytes)
	}
	if flags&flagRetry != 0 {
		dst = binary.AppendVarint(dst, m.RetryAfterMs)
	}
	return dst, nil
}

// decodeMessage decodes one message from in (the shared field reader,
// internal/journal); truncation surfaces through in.Err. A string field
// whose bytes equal the same field of prev is prev's string, not a copy.
// Where prev's field is empty, a Role is checked against RoleStation and
// a User against prev's ID, so neither a station's hello nor its first
// assoc after it (or hello_ok and the first assign) copies what is known.
func decodeMessage(in *journal.Reader, prev *Message) (Message, error) {
	var m Message
	wt, flags := in.Byte(), in.Byte()
	if in.Err() != nil {
		return m, fmt.Errorf("protocol: decode: truncated message header")
	}
	if int(wt) >= len(wireTypes) || wt == 0 {
		return m, fmt.Errorf("protocol: decode: unknown message type %d", wt)
	}
	m.Type = wireTypes[wt]
	m.Role = Role(in.StrAs(string(cmp.Or(prev.Role, RoleStation))))
	m.ID = in.StrAs(prev.ID)
	m.User = in.StrAs(cmp.Or(prev.User, prev.ID))
	m.AP = in.StrAs(prev.AP)
	m.Error = in.StrAs(prev.Error)
	if flags&flagCapacity != 0 {
		m.CapacityBps = in.Float()
	}
	if flags&flagLoad != 0 {
		m.LoadBps = in.Float()
	}
	if flags&flagDemand != 0 {
		m.DemandBps = in.Float()
	}
	if flags&flagBytes != 0 {
		m.Bytes = in.Varint()
	}
	if flags&flagRetry != 0 {
		m.RetryAfterMs = in.Varint()
	}
	if err := in.Err(); err != nil {
		return m, fmt.Errorf("protocol: decode %s message: %w", m.Type, err)
	}
	return m, nil
}

// decodePayload decodes a frame payload: the message count, which every
// sender writes as 1, and that message, decoded against prev so that
// strings that repeat are shared. Any other count, and bytes after the
// message, are errors — a CRC-valid frame is all or nothing.
func decodePayload(payload []byte, prev *Message) (Message, error) {
	in := journal.NewReader(payload)
	if count := in.Uvarint(); in.Err() != nil {
		return Message{}, fmt.Errorf("protocol: decode: missing or truncated message count")
	} else if count != 1 {
		return Message{}, fmt.Errorf("protocol: decode: frame of %d messages, want 1", count)
	}
	m, err := decodeMessage(&in, prev)
	if err != nil {
		return Message{}, err
	}
	if rest := len(in.Rest()); rest != 0 {
		return Message{}, fmt.Errorf("protocol: decode: %d trailing bytes after the message", rest)
	}
	return m, nil
}

// validNumber reports whether v is a usable non-negative finite number.
func validNumber(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// validateMessage is the server's ingress gate: every numeric field a
// peer can send must be finite and non-negative before it reaches load
// or served-byte accounting. A negative Bytes would decrement served
// counters; a NaN/Inf/negative rate would poison domain load state and
// every policy comparison downstream.
func validateMessage(m *Message) error {
	switch {
	case !validNumber(m.CapacityBps):
		return fmt.Errorf("invalid capacity_bps %v", m.CapacityBps)
	case !validNumber(m.LoadBps):
		return fmt.Errorf("invalid load_bps %v", m.LoadBps)
	case !validNumber(m.DemandBps):
		return fmt.Errorf("invalid demand_bps %v", m.DemandBps)
	case m.Bytes < 0:
		return fmt.Errorf("invalid bytes %d", m.Bytes)
	case m.RetryAfterMs < 0:
		return fmt.Errorf("invalid retry_after_ms %d", m.RetryAfterMs)
	}
	return nil
}
