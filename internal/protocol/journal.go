package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Controller durability (docs/ARCHITECTURE.md, "Durability & recovery"):
// every mutation is a journal.Record that apply performs and, with
// WithJournal, appends; checkpoints capture the whole controller state,
// the observer's included, at exactly the record that trips them.
// Served-byte counters are only as fresh as the last checkpoint.

var obsReplayErrs = obs.GetCounter("journal.recovery.replay_errors",
	"Recovered WAL records whose replay failed (skipped, recovery continues)")

// errExpireRefused is apply's answer to an AP lease expiry. Only a
// release that still leased APs wrote one, and no AP is removed since:
// recovery fails on it rather than skip it and serve a state that still
// holds the expired AP and its users.
var errExpireRefused = errors.New("AP lease expiry is not replayed: " +
	"only a release from before AP leases were removed wrote it")

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
// controller-owned; the remaining options (fsync policy, checkpoint
// cadence, logger) are the caller's.
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
	// frame). Each is logged and skipped; an AP lease expiry instead
	// fails recovery.
	ReplayErrors int
}

// Recovery returns the construction-time recovery summary, or nil when
// the controller runs without a journal.
func (c *Controller) Recovery() *RecoverySummary { return c.recovered }

// checkpointDoc is the controller's own part of a checkpoint payload, as
// decoded. Whatever follows it in the payload is the observer's state,
// in the observer's format and opaque to the controller — written
// straight through by ObserverState.WriteState, never re-encoded. Agent
// connections are inherently not recoverable: an agent-backed AP
// restarts registered, with its believed users, until its agent
// re-hellos.
//
// The stored form is built from the journal's field primitives, every
// table in sorted key order so the bytes are a pure function of the
// state (docs/ARCHITECTURE.md, "State format", has the layout as a table).
type checkpointDoc struct {
	Domain   *domain.State
	Sessions map[trace.UserID]session
	Meta     map[trace.APID]*apMeta
}

// checkpointVersion is the first byte of every checkpoint document.
const checkpointVersion = 1

const ( // user-row flags; every row this release writes has all three
	ckptAssigned = 1 << iota
	ckptAssignedAt
	ckptServedByUsr
	ckptSession = ckptAssigned | ckptAssignedAt | ckptServedByUsr
)

const ( // AP-row flags; every row this release writes has the first two
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
// dst: the domain, one full row per session and one per AP. Runs with
// c.mu held.
func (c *Controller) appendCheckpointLocked(dst []byte) []byte {
	st := c.dom.ExportState(&c.ckptState) // APs sorted by ID, sessions by user
	dst = append(dst, checkpointVersion)
	dst = binary.AppendUvarint(dst, uint64(st.Version))
	dst = binary.AppendUvarint(dst, uint64(len(st.APs)))
	for i := range st.APs {
		ap := &st.APs[i]
		dst = journal.AppendString(dst, string(ap.ID))
		dst = journal.AppendFloat(dst, ap.CapacityBps)
		dst = journal.AppendFloat(dst, ap.ReportedBps)
		dst = append(dst, 0) // the failed flag a parent release's reader expects
		dst = binary.AppendUvarint(dst, uint64(len(ap.Users)))
		for k, u := range ap.Users {
			dst = journal.AppendString(dst, string(u))
			dst = journal.AppendFloat(dst, ap.Demands[k])
		}
	}

	users := c.ckptUsers[:0]
	for u := range c.sessions {
		users = append(users, u)
	}
	slices.Sort(users)
	c.ckptUsers = users
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		s := c.sessions[u]
		dst = append(journal.AppendString(dst, string(u)), ckptSession)
		dst = journal.AppendString(dst, string(s.ap))
		dst = binary.AppendVarint(binary.AppendVarint(dst, s.at), s.served)
	}

	// The domain's APs are meta's keys, already sorted.
	dst = binary.AppendUvarint(dst, uint64(len(st.APs)))
	for i := range st.APs {
		id := st.APs[i].ID
		m := c.meta[id]
		dst = append(journal.AppendString(dst, string(id)), ckptServed|ckptMeta|journal.FlagIf(m.static, ckptStatic))
		dst = binary.AppendVarint(dst, m.served)
		// 0 fills the last-seen slot that AP leases used: a parent
		// release's reader expects it.
		dst = binary.AppendUvarint(binary.AppendVarint(dst, 0), m.gen)
	}
	return dst
}

// decodeCheckpoint splits a checkpoint payload into the controller's
// document and the observer's state that follows it. The payload is
// CRC-valid but otherwise untrusted: every count is bounded by the bytes
// left before anything is allocated for it. A row missing the part that
// makes it state — a user row without an AP, an AP row without lease
// metadata, as the release before wrote them — is read and dropped.
func decodeCheckpoint(payload []byte) (doc checkpointDoc, observerState []byte, err error) {
	in := journal.NewReader(payload)
	if v := in.Byte(); in.Err() != nil || v != checkpointVersion {
		return doc, nil, fmt.Errorf("protocol: decode checkpoint: document version %d, this release reads %d", v, checkpointVersion)
	}
	doc.Domain = &domain.State{Version: int(in.Uvarint())}
	doc.Domain.APs = make([]domain.APState, in.Count(minAPBytes))
	for i := range doc.Domain.APs {
		ap := &doc.Domain.APs[i]
		ap.ID, ap.CapacityBps, ap.ReportedBps = trace.APID(in.Str()), in.Float(), in.Float()
		in.Byte() // a parent release's failed flag: no AP fails
		if n := in.Count(minSessionBytes); n > 0 {
			ap.Users, ap.Demands = make([]trace.UserID, n), make([]float64, n)
		}
		for k := range ap.Users {
			ap.Users[k], ap.Demands[k] = trace.UserID(in.Str()), in.Float()
		}
	}

	n := in.Count(minRowBytes)
	doc.Sessions = make(map[trace.UserID]session, min(n, maxPresize))
	for ; n > 0 && in.Err() == nil; n-- {
		u, flags := trace.UserID(in.Str()), in.Byte()
		if flags&^ckptSession != 0 {
			return doc, nil, fmt.Errorf("protocol: decode checkpoint: user %q: unknown flags %#x", u, flags)
		}
		var s session
		if flags&ckptAssigned != 0 {
			s.ap = trace.APID(in.Str())
		}
		if flags&ckptAssignedAt != 0 {
			s.at = in.Varint()
		}
		if flags&ckptServedByUsr != 0 {
			s.served = in.Varint()
		}
		if s.ap != "" {
			doc.Sessions[u] = s
		}
	}

	n = in.Count(minRowBytes)
	doc.Meta = make(map[trace.APID]*apMeta, min(n, maxPresize))
	for ; n > 0 && in.Err() == nil; n-- {
		id, flags := trace.APID(in.Str()), in.Byte()
		if flags&^(ckptServed|ckptMeta|ckptStatic) != 0 {
			return doc, nil, fmt.Errorf("protocol: decode checkpoint: AP %q: unknown flags %#x", id, flags)
		}
		m := &apMeta{static: flags&ckptStatic != 0}
		if flags&ckptServed != 0 {
			m.served = in.Varint()
		}
		if flags&ckptMeta != 0 {
			in.Varint() // the last-seen slot: unread, kept for the layout
			m.gen = in.Uvarint()
			doc.Meta[id] = m
		}
	}
	if err := in.Err(); err != nil {
		return doc, nil, fmt.Errorf("protocol: decode checkpoint: %w", err)
	}
	for _, ap := range doc.Domain.APs {
		if doc.Meta[ap.ID] == nil {
			return doc, nil, fmt.Errorf("protocol: decode checkpoint: AP %q has no lease metadata", ap.ID)
		}
		if !validNumber(ap.CapacityBps) || !validNumber(ap.ReportedBps) ||
			slices.ContainsFunc(ap.Demands, func(v float64) bool { return !validNumber(v) }) {
			return doc, nil, fmt.Errorf("protocol: decode checkpoint: AP %q: capacity, load or demand not a finite non-negative number", ap.ID)
		}
	}
	if len(doc.Meta) != len(doc.Domain.APs) {
		return doc, nil, fmt.Errorf("protocol: decode checkpoint: %d APs carry lease metadata, the domain has %d", len(doc.Meta), len(doc.Domain.APs))
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
		if err := c.apply(&r, true); errors.Is(err, errExpireRefused) {
			return err
		} else if err != nil {
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
	sum.Assignments = len(c.sessions)
	c.recovered = sum
	// Arm appends only now: replaying must never re-journal.
	c.jn = j
	return sum, nil
}

// restoreCheckpoint loads a checkpoint payload: domain associations,
// assignment bookkeeping, AP metadata, and the observer's learned
// state when both sides support it.
func (c *Controller) restoreCheckpoint(payload []byte) error {
	doc, observerState, err := decodeCheckpoint(payload)
	if err != nil {
		return err
	}
	if err := c.dom.ImportState(doc.Domain); err != nil {
		return err
	}
	maps.Copy(c.sessions, doc.Sessions)
	maps.Copy(c.meta, doc.Meta)
	if len(observerState) > 0 {
		if st, ok := c.observer.(ObserverState); ok {
			if err := st.ReadState(bytes.NewBuffer(observerState)); err != nil { // read in place
				return fmt.Errorf("protocol: restore observer state: %w", err)
			}
		}
	}
	return nil
}

// apply performs one mutation — the record is the mutation — for every
// path that changes controller state: the live ones (through
// mutateLocked), recovery and takeover replay, and a follower's
// ApplyRecord. It runs with c.mu held (or before the controller serves).
// It updates the domain, the session table and the AP metadata, and
// delivers the observer's events in mutation order: for an assoc that
// moves its user, the disconnect, then the connect; a same-AP refresh
// emits nothing, since the user never left. A replay skips the live-only
// counters and the log lines: the process that wrote the record already
// emitted them. Every live entry point checks its numbers at the door,
// so a number apply refuses is a replayed record's, named by its seq.
func (c *Controller) apply(r *journal.Record, replay bool) error {
	switch r.Op {
	case journal.OpRegister:
		if !validNumber(r.CapacityBps) {
			return fmt.Errorf("protocol: journal record %d: invalid capacity_bps %v", r.Seq, r.CapacityBps)
		}
		if m, ok := c.meta[r.AP]; ok {
			c.dom.SetCapacity(r.AP, r.CapacityBps)
			if !m.static {
				m.gen++
			}
			return nil
		}
		if err := c.dom.AddAP(r.AP, r.CapacityBps); err != nil {
			return err
		}
		m := &apMeta{static: r.Static}
		if !r.Static {
			m.gen = 1
		}
		c.meta[r.AP] = m
		return nil

	case journal.OpAssoc:
		// Every writer decides one request per record.
		if len(r.Placements) != 1 {
			return fmt.Errorf("protocol: assoc record with %d placements, want 1", len(r.Placements))
		}
		p := &r.Placements[0]
		if !validNumber(p.DemandBps) {
			return fmt.Errorf("protocol: journal record %d: invalid demand_bps %v", r.Seq, p.DemandBps)
		}
		c.scr.dp[0] = domain.Placement{User: p.User, AP: p.AP, Prev: p.Prev, DemandBps: p.DemandBps}
		if _, err := c.dom.Commit(c.scr.dp[:], nil); err != nil {
			return err
		}
		if s, ok := c.sessions[p.User]; !ok || s.ap != p.AP {
			if ok {
				if !replay {
					obsAssocMoves.Inc()
				}
				c.notifyDisconnect(p.User, s.ap, r.TS)
			}
			c.sessions[p.User] = session{ap: p.AP, at: r.TS}
			if c.observer != nil {
				c.observer.Connect(p.User, p.AP, r.TS)
			}
		}
		if !replay && c.logEnabled {
			c.logger.Printf("assoc %s -> %s (demand %.0f B/s)", p.User, p.AP, p.DemandBps)
		}
		return nil

	case journal.OpDisassoc:
		s, ok := c.sessions[r.User]
		if !ok {
			return fmt.Errorf("protocol: disassoc for unassigned user %q", r.User)
		}
		c.dom.Leave(r.User, s.ap, math.Inf(1))
		delete(c.sessions, r.User)
		c.notifyDisconnect(r.User, s.ap, r.TS)
		if !replay && c.logEnabled {
			c.logger.Printf("disassoc %s from %s", r.User, s.ap)
		}
		return nil

	case journal.OpExpire:
		return fmt.Errorf("protocol: journal record %d (%s): %w", r.Seq, r.Op, errExpireRefused)
	}
	return fmt.Errorf("protocol: unknown journal op %q", r.Op)
}

// mutateLocked applies one live mutation and then, if journaling is
// enabled, appends its record. Runs with c.mu held. Observer events go
// out inside apply, before the append, so a checkpoint triggered by this
// record captures the observer at exactly this sequence number. An
// append failure is logged and counted (journal.append_errors) but does
// not fail the client operation: this prototype prefers availability,
// and a recovered state that is missing tail records is exactly what
// recovery is specified to tolerate.
func (c *Controller) mutateLocked(rec journal.Record) error {
	if err := c.apply(&rec, false); err != nil {
		return err
	}
	if c.jn == nil {
		return nil
	}
	if err := c.jn.Append(rec); err != nil {
		c.logger.Printf("journal: %v", err)
	}
	return nil
}

// closeJournal checkpoints (graceful shutdown makes restart instant) and
// closes the journal. Runs without c.mu held.
func (c *Controller) closeJournal() error {
	c.mu.Lock()
	j := c.jn
	c.jn = nil
	if j == nil {
		c.mu.Unlock()
		return nil
	}
	err := j.Checkpoint() // State callback runs under c.mu, as always
	c.mu.Unlock()
	return errors.Join(err, j.Close())
}
