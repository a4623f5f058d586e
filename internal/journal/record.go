package journal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Op enumerates the journaled domain mutations.
type Op string

const (
	// OpRegister records an AP registration (or a re-hello renewing one:
	// replay updates capacity and last-seen time for a known AP).
	OpRegister Op = "register"
	// OpAssoc records one atomic placement commit, including a Prev
	// move. The controller writes one placement per record; the layout
	// keeps a count.
	OpAssoc Op = "assoc"
	// OpDisassoc records a full disassociation: replay detaches the
	// user with domain Leave at +Inf demand.
	OpDisassoc Op = "disassoc"
	// OpExpire records a lease expiry removing an AP and re-homing its
	// believed users. Only a release that leased APs wrote it; it still
	// decodes, so s3 diag -journal prints it, but no release replays it.
	OpExpire Op = "expire"
)

// Placement is one user placement inside an OpAssoc record.
type Placement struct {
	User      trace.UserID `json:"user"`
	AP        trace.APID   `json:"ap"`
	Prev      trace.APID   `json:"prev,omitempty"`
	DemandBps float64      `json:"demand_bps,omitempty"`
}

// Record is one journaled mutation. Seq is assigned by Append and is
// strictly increasing across segments and checkpoints. Epoch is the
// writer's ownership generation (Options.Epoch): in a
// federated deployment every cross-process failover bumps it, so a
// follower tailing the stream can fence out records a superseded owner
// wrote after losing its lease. Single-owner journals leave it zero.
//
// The json tags serve inspection tooling (s3 diag -journal); what the
// journal stores is the layout AppendRecord writes.
type Record struct {
	Seq         uint64       `json:"seq"`
	Epoch       uint64       `json:"epoch,omitempty"`
	Op          Op           `json:"op"`
	TS          int64        `json:"ts,omitempty"`
	AP          trace.APID   `json:"ap,omitempty"`
	User        trace.UserID `json:"user,omitempty"`
	CapacityBps float64      `json:"capacity_bps,omitempty"`
	Static      bool         `json:"static,omitempty"`
	Placements  []Placement  `json:"placements,omitempty"`
}

// recordVersion is the first payload byte of every record this release
// writes, and the only one DecodeRecord reads: an earlier release's JSON
// record, whose first byte is '{', is refused as an unknown version.
const recordVersion = 1

// wireOps is the stored spelling of Op; a zeroed payload is no record,
// and neither is the unassigned op 4.
var wireOps = [...]Op{1: OpRegister, 2: OpAssoc, 3: OpDisassoc, 5: OpExpire}

// Flags: an absent float costs one bit, Static is its own flag (bit 1
// is unassigned). Absent strings and integers cost one byte each, as in
// the wire codec.
const (
	recCapacity = 1 << 0
	recStatic   = 1 << 2
	// minPlacementBytes — three empty strings and a float — bounds a
	// placement count before anything is allocated for it.
	minPlacementBytes = 3 + 8
)

// AppendRecord appends r's stored form to dst — version, op, flags, the
// integers and strings, the flagged floats, the placements; the package
// comment has the layout. It fails only for an Op outside the Op*
// constants.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	op := 0
	for i := 1; i < len(wireOps) && r.Op != ""; i++ {
		if wireOps[i] == r.Op {
			op = i
		}
	}
	if op == 0 {
		return dst, fmt.Errorf("journal: encode: unknown op %q", r.Op)
	}
	flags := FlagIf(r.CapacityBps != 0, recCapacity) | FlagIf(r.Static, recStatic)
	dst = append(dst, recordVersion, byte(op), flags)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = binary.AppendVarint(dst, r.TS)
	dst = AppendString(dst, string(r.AP))
	dst = AppendString(dst, string(r.User))
	if flags&recCapacity != 0 {
		dst = AppendFloat(dst, r.CapacityBps)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Placements)))
	for i := range r.Placements {
		p := &r.Placements[i]
		dst = AppendString(dst, string(p.User))
		dst = AppendString(dst, string(p.AP))
		dst = AppendString(dst, string(p.Prev))
		dst = AppendFloat(dst, p.DemandBps)
	}
	return dst, nil
}

// DecodeRecord decodes one record payload into r, replacing every field;
// r.Placements' backing array is reused, so a caller that keeps a
// decoded record across calls must take the slice away from r first. A
// string equal to what its field or placement slot of r held (r's empty
// AP or User: its first placement's) is kept, not copied. It
// is the one decoder recovery, followers and tooling share, and it
// treats the payload as hostile: an unknown version, op or flag bit, a
// placement count the remaining bytes could not hold, a truncated field
// or trailing bytes is an error, never a panic or an allocation sized by
// the input's claims.
func DecodeRecord(payload []byte, r *Record) error {
	in := NewReader(payload)
	version, op, flags := in.Byte(), in.Byte(), in.Byte()
	switch {
	case in.Err() != nil:
		return fmt.Errorf("journal: decode record: %w", in.Err())
	case version != recordVersion:
		return fmt.Errorf("journal: decode record: unknown version %d", version)
	case int(op) >= len(wireOps) || wireOps[op] == "":
		return fmt.Errorf("journal: decode record: unknown op %d", op)
	case flags&^(recCapacity|recStatic) != 0:
		return fmt.Errorf("journal: decode record: unknown flags %#x", flags)
	}
	var first Placement // a departure names the AP and user its association placed
	if cap(r.Placements) > 0 {
		first = r.Placements[:1][0]
	}
	*r = Record{Op: wireOps[op], Seq: in.Uvarint(), Epoch: in.Uvarint(), TS: in.Varint(),
		AP: trace.APID(in.StrAs(string(cmp.Or(r.AP, first.AP)))), User: trace.UserID(in.StrAs(string(cmp.Or(r.User, first.User)))),
		Static: flags&recStatic != 0, Placements: r.Placements[:0]}
	if flags&recCapacity != 0 {
		r.CapacityBps = in.Float()
	}
	for n := in.Count(minPlacementBytes); n > 0 && in.Err() == nil; n-- {
		r.Placements = slices.Grow(r.Placements, 1)[:len(r.Placements)+1]
		p := &r.Placements[len(r.Placements)-1] // as this slot was last decoded, or zero
		p.User, p.AP, p.Prev = trace.UserID(in.StrAs(string(p.User))), trace.APID(in.StrAs(string(p.AP))), trace.APID(in.StrAs(string(p.Prev)))
		p.DemandBps = in.Float()
	}
	if in.Err() != nil {
		return fmt.Errorf("journal: decode record %d: %w", r.Seq, in.Err())
	}
	if rest := len(in.Rest()); rest != 0 {
		return fmt.Errorf("journal: decode record %d: %d trailing bytes", r.Seq, rest)
	}
	return nil
}
