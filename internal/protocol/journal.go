package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Controller durability: with WithJournal, every domain mutation the
// controller commits — registrations, association commits (single and
// batch), disassociations and lease expiries — is appended to a
// write-ahead journal after it applies, and checkpoints capture the full
// controller state (domain associations, assignment bookkeeping, AP
// lease metadata, and the social observer's learned state when it can
// persist itself). A restarted controller pointed at the same directory
// recovers the newest valid checkpoint and replays the record tail, so
// believed loads, assignments and the θ-graph survive a crash.
//
// Served-byte counters (station traffic accounting) are advisory and
// only as fresh as the last checkpoint: traffic volume is not a domain
// mutation and is deliberately not journaled per report.
//
// Observer events are delivered inside the mutation's locked section, in
// mutation order and before the record is appended, journal or not — a
// checkpoint triggered by record N then captures the observer at
// exactly sequence N, and replaying records > N through the observer
// reconstructs it losslessly.

var obsReplayErrs = obs.GetCounter("journal.recovery.replay_errors",
	"Recovered WAL records whose replay failed (skipped, recovery continues)")

// ObserverState is the optional persistence surface of an association
// observer. An observer implementing it (e.g. the incremental social
// engine) is checkpointed with the controller and restored before the
// journal tail is replayed through it.
type ObserverState interface {
	WriteState(w io.Writer) error
	ReadState(r io.Reader) error
}

// WithJournal enables crash-safe state: the controller recovers from the
// write-ahead journal in dir at construction and appends every domain
// mutation to it afterwards. opts.State and opts.OpenFile's default are
// controller-owned; the remaining options (fsync policy and interval,
// checkpoint cadence, logger) are the caller's.
func WithJournal(dir string, opts journal.Options) ControllerOption {
	return func(c *Controller) {
		c.journalDir = dir
		c.journalOpts = opts
	}
}

// RecoverySummary reports what a journal-enabled controller rebuilt at
// construction.
type RecoverySummary struct {
	// Stats is the journal layer's account: checkpoint used, records
	// replayed, corruption tolerated.
	Stats journal.RecoveryStats
	// APs and Assignments count the recovered registrations and user
	// assignments after replay.
	APs, Assignments int
	// ReplayErrors counts journal records that could not be re-applied
	// (e.g. an association whose AP registration was lost to a corrupt
	// frame). Each is logged and skipped.
	ReplayErrors int
}

// Recovery returns the construction-time recovery summary, or nil when
// the controller runs without a journal.
func (c *Controller) Recovery() *RecoverySummary { return c.recovered }

// checkpointMeta is one AP's serialized lease metadata. Agent
// connections are inherently not recoverable; an agent-backed AP
// restarts with its lease clock where the checkpoint left it and either
// re-hellos or expires through the normal observer path.
type checkpointMeta struct {
	Static   bool
	LastSeen int64
	Gen      uint64
}

// checkpointDoc is the controller's own part of a checkpoint payload, as
// decoded. Whatever follows it in the payload is the observer's state,
// in the observer's format and opaque to the controller — written
// straight through by ObserverState.WriteState, never re-encoded.
//
// The stored form is built from the journal's field primitives, every
// table in sorted key order so the bytes are a pure function of the
// state (docs/ARCHITECTURE.md, "State format", has the layout as a table).
type checkpointDoc struct {
	Domain      *domain.State
	Assignments map[trace.UserID]trace.APID
	AssignedAt  map[trace.UserID]int64
	ServedByUsr map[trace.UserID]int64
	Served      map[trace.APID]int64
	Meta        map[trace.APID]checkpointMeta
}

// checkpointVersion is the first byte of every checkpoint document; a
// document of the JSON releases begins with '{' and is refused as an
// unknown version.
const checkpointVersion = 1

const ( // user-row flags
	ckptAssigned = 1 << iota
	ckptAssignedAt
	ckptServedByUsr
)

const ( // AP-row flags
	ckptServed = 1 << iota
	ckptMeta
	ckptStatic
)

// Smallest encodings of one AP, one session and one table row: what a
// decoded count is checked against before anything is allocated for it.
// maxPresize caps map pre-sizing, whose cost per entry exceeds a row's.
const (
	minAPBytes      = 1 + 8 + 8 + 1 + 1
	minSessionBytes = 1 + 8
	minRowBytes     = 2
	maxPresize      = 1 << 16
)

// appendCheckpointLocked appends the controller's checkpoint document to
// dst. Runs with c.mu held.
func (c *Controller) appendCheckpointLocked(dst []byte) []byte {
	st := c.dom.ExportState() // APs sorted by ID, sessions by user
	dst = append(dst, checkpointVersion)
	dst = binary.AppendUvarint(dst, uint64(st.Version))
	dst = binary.AppendUvarint(dst, uint64(len(st.APs)))
	for i := range st.APs {
		ap := &st.APs[i]
		dst = journal.AppendString(dst, string(ap.ID))
		dst = journal.AppendFloat(dst, ap.CapacityBps)
		dst = journal.AppendFloat(dst, ap.ReportedBps)
		dst = append(dst, journal.FlagIf(ap.Failed, 1))
		dst = binary.AppendUvarint(dst, uint64(len(ap.Users)))
		for k, u := range ap.Users {
			dst = journal.AppendString(dst, string(u))
			dst = journal.AppendFloat(dst, ap.Demands[k])
		}
	}

	// One row per user any of the three per-user maps knows.
	users := c.ckptUsers[:0]
	for u := range c.assignments {
		users = append(users, u)
	}
	for u := range c.assignedAt {
		if _, ok := c.assignments[u]; !ok {
			users = append(users, u)
		}
	}
	for u := range c.servedByUsr {
		_, a := c.assignments[u]
		if _, b := c.assignedAt[u]; !a && !b {
			users = append(users, u)
		}
	}
	slices.Sort(users)
	c.ckptUsers = users
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		ap, assigned := c.assignments[u]
		at, hasAt := c.assignedAt[u]
		served, hasServed := c.servedByUsr[u]
		flags := journal.FlagIf(assigned, ckptAssigned) | journal.FlagIf(hasAt, ckptAssignedAt) | journal.FlagIf(hasServed, ckptServedByUsr)
		dst = append(journal.AppendString(dst, string(u)), flags)
		if assigned {
			dst = journal.AppendString(dst, string(ap))
		}
		if hasAt {
			dst = binary.AppendVarint(dst, at)
		}
		if hasServed {
			dst = binary.AppendVarint(dst, served)
		}
	}

	// And one per AP with served bytes or lease metadata.
	aps := c.ckptAPs[:0]
	for id := range c.meta {
		aps = append(aps, id)
	}
	for id := range c.served {
		if _, ok := c.meta[id]; !ok {
			aps = append(aps, id)
		}
	}
	slices.Sort(aps)
	c.ckptAPs = aps
	dst = binary.AppendUvarint(dst, uint64(len(aps)))
	for _, id := range aps {
		served, hasServed := c.served[id]
		m := c.meta[id]
		flags := journal.FlagIf(hasServed, ckptServed) | journal.FlagIf(m != nil, ckptMeta) | journal.FlagIf(m != nil && m.static, ckptStatic)
		dst = append(journal.AppendString(dst, string(id)), flags)
		if hasServed {
			dst = binary.AppendVarint(dst, served)
		}
		if m != nil {
			dst = binary.AppendUvarint(binary.AppendVarint(dst, m.lastSeen), m.gen)
		}
	}
	return dst
}

// decodeCheckpoint splits a checkpoint payload into the controller's
// document and the observer's state that follows it. The payload is
// CRC-valid but otherwise untrusted: every count is bounded by the bytes
// left before anything is allocated for it.
func decodeCheckpoint(payload []byte) (doc checkpointDoc, observerState []byte, err error) {
	in := journal.NewReader(payload)
	if v := in.Byte(); in.Err() != nil || v != checkpointVersion {
		return doc, nil, fmt.Errorf("protocol: decode checkpoint: document version %d, this release reads %d "+
			"(a JSON document begins with '{', 123, and is no longer read)", v, checkpointVersion)
	}
	doc.Domain = &domain.State{Version: int(in.Uvarint())}
	doc.Domain.APs = make([]domain.APState, in.Count(minAPBytes))
	for i := range doc.Domain.APs {
		ap := &doc.Domain.APs[i]
		ap.ID, ap.CapacityBps, ap.ReportedBps = trace.APID(in.Str()), in.Float(), in.Float()
		ap.Failed = in.Byte() != 0
		if n := in.Count(minSessionBytes); n > 0 {
			ap.Users, ap.Demands = make([]trace.UserID, n), make([]float64, n)
		}
		for k := range ap.Users {
			ap.Users[k], ap.Demands[k] = trace.UserID(in.Str()), in.Float()
		}
	}

	n := in.Count(minRowBytes)
	doc.Assignments = make(map[trace.UserID]trace.APID, min(n, maxPresize))
	doc.AssignedAt = make(map[trace.UserID]int64, min(n, maxPresize))
	doc.ServedByUsr = make(map[trace.UserID]int64, min(n, maxPresize))
	for ; n > 0 && in.Err() == nil; n-- {
		u, flags := trace.UserID(in.Str()), in.Byte()
		if flags&^(ckptAssigned|ckptAssignedAt|ckptServedByUsr) != 0 {
			return doc, nil, fmt.Errorf("protocol: decode checkpoint: user %q: unknown flags %#x", u, flags)
		}
		if flags&ckptAssigned != 0 {
			doc.Assignments[u] = trace.APID(in.Str())
		}
		if flags&ckptAssignedAt != 0 {
			doc.AssignedAt[u] = in.Varint()
		}
		if flags&ckptServedByUsr != 0 {
			doc.ServedByUsr[u] = in.Varint()
		}
	}

	n = in.Count(minRowBytes)
	doc.Served = make(map[trace.APID]int64, min(n, maxPresize))
	doc.Meta = make(map[trace.APID]checkpointMeta, min(n, maxPresize))
	for ; n > 0 && in.Err() == nil; n-- {
		id, flags := trace.APID(in.Str()), in.Byte()
		if flags&^(ckptServed|ckptMeta|ckptStatic) != 0 {
			return doc, nil, fmt.Errorf("protocol: decode checkpoint: AP %q: unknown flags %#x", id, flags)
		}
		if flags&ckptServed != 0 {
			doc.Served[id] = in.Varint()
		}
		if flags&ckptMeta != 0 {
			doc.Meta[id] = checkpointMeta{Static: flags&ckptStatic != 0, LastSeen: in.Varint(), Gen: in.Uvarint()}
		}
	}
	if err := in.Err(); err != nil {
		return doc, nil, fmt.Errorf("protocol: decode checkpoint: %w", err)
	}
	return doc, in.Rest(), nil
}

// writeCheckpointLocked serializes the controller's complete state to w.
// It runs with c.mu held: the journal invokes its State callback
// synchronously from Append (called under c.mu on every mutation path)
// and from the forced checkpoint in Close (which takes c.mu first), so
// the snapshot is always consistent with the record that triggered it.
// The journal's writer lends its spare capacity (AvailableBuffer, as
// bytes.Buffer does), so the document is encoded in place inside the
// checkpoint frame.
func (c *Controller) writeCheckpointLocked(w io.Writer) error {
	var dst []byte
	if b, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		dst = b.AvailableBuffer()
	}
	if _, err := w.Write(c.appendCheckpointLocked(dst)); err != nil {
		return fmt.Errorf("protocol: write checkpoint: %w", err)
	}
	if st, ok := c.observer.(ObserverState); ok {
		if err := st.WriteState(w); err != nil {
			return fmt.Errorf("protocol: checkpoint observer state: %w", err)
		}
	}
	return nil
}

// attachJournalLocked recovers the journal in dir and opens it for
// appending: its newest checkpoint goes to restore, the records beyond
// afterSeq are re-applied as recovery reads them — one reused record, as
// a follower replays — and journaling is armed. NewController calls it
// once the domain is built, AttachJournal at a takeover.
func (c *Controller) attachJournalLocked(dir string, opts journal.Options, afterSeq uint64, what string,
	restore func(checkpoint []byte, seq uint64) error) (*RecoverySummary, error) {
	sum := &RecoverySummary{}
	opts.State, opts.Restore = c.writeCheckpointLocked, restore
	opts.Replay = func(r journal.Record) error {
		if r.Seq <= afterSeq {
			return nil
		}
		if err := c.applyRecord(r); err != nil {
			sum.ReplayErrors++
			obsReplayErrs.Inc()
			c.logger.Printf("journal: %s record %d (%s): %v", what, r.Seq, r.Op, err)
		}
		return nil
	}
	if opts.Logger == nil {
		opts.Logger = c.logger
	}
	j, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	sum.Stats = rec.Stats
	sum.APs = c.dom.Size()
	sum.Assignments = len(c.assignments)
	c.recovered = sum
	// Arm appends only now: replaying must never re-journal.
	c.jn = j
	return sum, nil
}

// restoreCheckpoint loads a checkpoint payload: domain associations,
// assignment bookkeeping, AP lease metadata, and the observer's learned
// state when both sides support it.
func (c *Controller) restoreCheckpoint(payload []byte) error {
	doc, observerState, err := decodeCheckpoint(payload)
	if err != nil {
		return err
	}
	if doc.Domain != nil {
		if err := c.dom.ImportState(doc.Domain); err != nil {
			return err
		}
	}
	maps.Copy(c.assignments, doc.Assignments)
	maps.Copy(c.assignedAt, doc.AssignedAt)
	maps.Copy(c.servedByUsr, doc.ServedByUsr)
	maps.Copy(c.served, doc.Served)
	for id, m := range doc.Meta {
		c.meta[id] = &apMeta{static: m.Static, lastSeen: m.LastSeen, gen: m.Gen}
	}
	if len(observerState) > 0 {
		if st, ok := c.observer.(ObserverState); ok {
			if err := st.ReadState(bytes.NewReader(observerState)); err != nil {
				return fmt.Errorf("protocol: restore observer state: %w", err)
			}
		}
	}
	return nil
}

// applyRecord re-applies one journaled mutation during recovery,
// mirroring the live mutation paths: domain commits, assignment
// bookkeeping, and observer Connect/Disconnect events (so a social
// engine restored from the checkpoint relearns exactly the tail).
// Session-log emission is suppressed — the pre-crash process already
// logged those sessions.
func (c *Controller) applyRecord(r journal.Record) error {
	switch r.Op {
	case journal.OpRegister:
		if m, ok := c.meta[r.AP]; ok {
			c.dom.SetCapacity(r.AP, r.CapacityBps)
			if !m.static {
				m.lastSeen = r.TS
				m.gen++
			}
			return nil
		}
		if err := c.dom.AddAP(r.AP, r.CapacityBps); err != nil {
			return err
		}
		m := &apMeta{static: r.Static}
		if !r.Static {
			m.lastSeen = r.TS
			m.gen = 1
		}
		c.meta[r.AP] = m
		return nil

	case journal.OpAssoc:
		ps := make([]domain.Placement, len(r.Placements))
		for i, p := range r.Placements {
			ps[i] = domain.Placement{User: p.User, AP: p.AP, Prev: p.Prev, DemandBps: p.DemandBps}
		}
		if _, err := c.dom.Commit(ps, nil); err != nil {
			return err
		}
		for _, p := range r.Placements {
			prev, hadPrev := c.assignments[p.User]
			refresh := hadPrev && prev == p.AP
			c.assignments[p.User] = p.AP
			if !refresh {
				// Mirror the live path: a same-AP refresh keeps the
				// session timestamp and served-byte tally continuous and
				// emits no lifecycle events.
				c.assignedAt[p.User] = r.TS
				c.servedByUsr[p.User] = 0
			}
			if c.observer != nil && !refresh {
				if hadPrev {
					if err := c.observer.Disconnect(p.User, prev, r.TS); err != nil {
						c.logger.Printf("journal: replay observer disconnect %s: %v", p.User, err)
					}
				}
				c.observer.Connect(p.User, p.AP, r.TS)
			}
		}
		return nil

	case journal.OpDisassoc:
		ap, ok := c.assignments[r.User]
		if !ok {
			return fmt.Errorf("protocol: disassoc replay for unassigned user %q", r.User)
		}
		delete(c.assignments, r.User)
		delete(c.assignedAt, r.User)
		delete(c.servedByUsr, r.User)
		c.dom.LeaveAll(r.User, ap)
		if c.observer != nil {
			if err := c.observer.Disconnect(r.User, ap, r.TS); err != nil {
				c.logger.Printf("journal: replay observer disconnect %s: %v", r.User, err)
			}
		}
		return nil

	case journal.OpLeave:
		if !c.dom.Leave(r.User, r.AP, r.DemandBps) {
			return fmt.Errorf("protocol: leave replay for %q on %q failed", r.User, r.AP)
		}
		return nil

	case journal.OpExpire:
		if _, ok := c.meta[r.AP]; !ok {
			return fmt.Errorf("protocol: expire replay for unknown AP %q", r.AP)
		}
		evicted, _ := c.dom.RemoveAP(r.AP)
		delete(c.meta, r.AP)
		sort.Slice(evicted, func(i, j int) bool { return evicted[i].User < evicted[j].User })
		for _, ev := range evicted {
			delete(c.assignments, ev.User)
			delete(c.assignedAt, ev.User)
			delete(c.servedByUsr, ev.User)
			if c.observer != nil {
				if err := c.observer.Disconnect(ev.User, r.AP, r.TS); err != nil {
					c.logger.Printf("journal: replay observer disconnect %s: %v", ev.User, err)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("protocol: unknown journal op %q", r.Op)
}

// journalAppendLocked appends one record if journaling is enabled. Runs
// with c.mu held, after the mutation it describes has applied. An append
// failure is logged and counted (journal.append_errors) but does not
// fail the client operation: this prototype prefers availability, and a
// recovered state that is missing tail records is exactly what recovery
// is specified to tolerate.
func (c *Controller) journalAppendLocked(rec journal.Record) {
	if c.jn == nil {
		return
	}
	if err := c.jn.Append(rec); err != nil {
		c.logger.Printf("journal: %v", err)
	}
}

// closeJournal checkpoints (graceful shutdown makes restart instant) and
// closes the journal. Runs without c.mu held.
func (c *Controller) closeJournal() error {
	c.mu.Lock()
	j := c.jn
	c.jn = nil
	var err error
	if j != nil {
		err = j.Checkpoint() // State callback runs under c.mu, as always
	}
	c.mu.Unlock()
	if j != nil {
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
