package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// Framing and field primitives: the one compact encoding the journal's
// records, the controller's checkpoint document and the protocol's
// binary wire codec are all built from.

const (
	// FrameMagic marks the start of every frame. Encoded little-endian,
	// the first byte on the wire is 0xF5 — non-ASCII, which lets a shared
	// listener distinguish a framed binary stream from a JSON-lines
	// stream by its first byte (internal/protocol reuses this framing as
	// its binary wire format).
	FrameMagic uint32 = 0xAA5733F5
	// FrameHeaderLen is the fixed frame header size: magic, length, CRC.
	FrameHeaderLen = 12
	// MaxRecordBytes bounds a single record's payload; a decoded length
	// beyond it is treated as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

var (
	crcTable   = crc32.MakeTable(crc32.Castagnoli)
	magicBytes = binary.LittleEndian.AppendUint32(nil, FrameMagic)
)

// Checksum returns the CRC-32C (Castagnoli) checksum frames carry.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}

// AppendFrame appends payload wrapped in a magic + length + CRC32C frame
// to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), payload...)
	SealFrame(dst[start:])
	return dst
}

// BeginFrame reserves a frame header at the end of dst. The caller
// appends the payload and hands the frame to SealFrame, so a payload
// encoded in place is never copied into its frame.
func BeginFrame(dst []byte) []byte {
	var hdr [FrameHeaderLen]byte
	return append(dst, hdr[:]...)
}

// SealFrame fills in the header reserved at the start of frame.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], FrameMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], Checksum(payload))
}

// FrameStats summarizes what a frame walk tolerated and how far it got.
type FrameStats struct {
	// Corrupt counts CRC failures and damaged headers skipped. Resyncs
	// counts the subset that lost framing entirely (damaged magic or
	// implausible length) and re-synchronized on the next magic marker.
	Corrupt, Resyncs int
	// Torn reports an incomplete trailing frame.
	Torn bool
	// Consumed is the offset just past the last complete frame the walk
	// got through — CRC-valid and accepted by the callback, or CRC-bad
	// with a plausible length and skipped whole — and LastFrame where
	// that frame starts. What follows is a torn tail, garbage with no
	// frame after it yet, or the frame the callback refused.
	Consumed, LastFrame int
	// Unsettled counts the Corrupt (and Resyncs) met beyond Consumed: a
	// reader resuming at Consumed walks them again, so must not count
	// them yet.
	Unsettled int
}

// WalkFrames walks data frame by frame, handing each complete, CRC-valid
// payload (a sub-slice of data, at offset off) to fn in order. A CRC
// failure skips the frame; a damaged length or magic re-synchronizes on
// the next magic marker; an incomplete trailing frame stops the walk as
// a torn tail. The walk itself never fails — any input yields the
// longest decodable prefix-structure, which is exactly the
// crash-recovery contract — and stops early only on fn's error, which it
// returns with Consumed left before the refused frame.
func WalkFrames(data []byte, fn func(off int, payload []byte) error) (FrameStats, error) {
	var st FrameStats
	lostFraming := func(from int) int {
		st.Corrupt++
		st.Resyncs++
		st.Unsettled++
		if next := bytes.Index(data[from:], magicBytes); next >= 0 {
			return from + next
		}
		return len(data)
	}
	for off := 0; off < len(data); {
		if len(data)-off < FrameHeaderLen {
			st.Torn = true
			break
		}
		if binary.LittleEndian.Uint32(data[off:]) != FrameMagic {
			off = lostFraming(off + 1) // a flipped length on the previous skip, or garbage
			continue
		}
		length := binary.LittleEndian.Uint32(data[off+4:])
		if length > MaxRecordBytes {
			off = lostFraming(off + 4)
			continue
		}
		end := off + FrameHeaderLen + int(length)
		if end > len(data) {
			st.Torn = true
			break
		}
		payload := data[off+FrameHeaderLen : end]
		if Checksum(payload) != binary.LittleEndian.Uint32(data[off+8:]) {
			st.Corrupt++ // length was plausible: skip the damaged frame whole
		} else if err := fn(off, payload); err != nil {
			return st, err
		}
		st.LastFrame, st.Consumed, st.Unsettled = off, end, 0
		off = end
	}
	return st, nil
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendFloat appends v as its 8-byte little-endian IEEE-754 bits.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// FlagIf returns flag when cond holds: how the layouts spell a presence
// bit.
func FlagIf(cond bool, flag byte) byte {
	if cond {
		return flag
	}
	return 0
}

// ErrMalformed is what a Reader reports for input that ends inside a
// field or declares a count its remaining bytes cannot hold.
var ErrMalformed = errors.New("truncated or malformed field")

// Reader decodes what AppendString, AppendFloat, binary.AppendUvarint and
// binary.AppendVarint wrote. The first malformed field makes every later
// read return zero and Err report ErrMalformed, so a decoder reads its
// whole layout and checks once.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads from b, which it never modifies.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err reports whether any read so far ran past the input.
func (r *Reader) Err() error {
	if r.bad {
		return ErrMalformed
	}
	return nil
}

// Rest returns the bytes not yet read.
func (r *Reader) Rest() []byte { return r.b }

// take returns the next n bytes, or nil after failing the reader.
func (r *Reader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	head := r.b[:n]
	r.b = r.b[n:]
	return head
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 { // one byte: most counts and lengths
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.take(math.MaxUint64)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float reads an 8-byte little-endian float64.
func (r *Reader) Float() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Str reads a uvarint-length-prefixed string. (Not named String: a
// Reader must not satisfy fmt.Stringer with a method that consumes it.)
func (r *Reader) Str() string { return r.StrAs("") }

// StrAs reads a string as Str does, but returns prev itself when the
// bytes equal it: a decoder that passes what the same field held in its
// previous message or record copies only a string that changed.
func (r *Reader) StrAs(prev string) string {
	if b := r.take(r.Uvarint()); string(b) != prev {
		return string(b)
	}
	return prev
}

// Count reads an element count and fails the reader when the remaining
// input could not hold that many elements of at least minBytes each —
// the bound a decoder applies before it allocates for a forged count.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.take(math.MaxUint64)
		return 0
	}
	return int(n)
}
