package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// With a journal, observer events are delivered synchronously inside
// the mutation's locked section, before the record is appended — a
// checkpoint triggered by record N then captures the observer at
// exactly sequence N, and replaying records > N through the observer
// reconstructs it losslessly. Without a journal, delivery stays outside
// the lock (observers may be slow; nothing needs the ordering).

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
	Static   bool   `json:"static,omitempty"`
	LastSeen int64  `json:"last_seen,omitempty"`
	Gen      uint64 `json:"gen,omitempty"`
}

// checkpointDoc is the controller's own part of a checkpoint payload:
// one JSON line. Whatever follows that line is the observer's state, in
// the observer's format and opaque to the controller — written straight
// through by ObserverState.WriteState, never re-encoded. Checkpoints
// written two releases ago carried a JSON observer state inside the
// document instead (Society). Nothing reads that format any more; the
// field remains so that such a checkpoint is refused by name rather than
// recovered with its learned state silently dropped.
type checkpointDoc struct {
	Domain      *domain.State                 `json:"domain"`
	Assignments map[trace.UserID]trace.APID   `json:"assignments,omitempty"`
	AssignedAt  map[trace.UserID]int64        `json:"assigned_at,omitempty"`
	ServedByUsr map[trace.UserID]int64        `json:"served_by_user,omitempty"`
	Served      map[trace.APID]int64          `json:"served,omitempty"`
	Meta        map[trace.APID]checkpointMeta `json:"meta,omitempty"`
	Society     json.RawMessage               `json:"society,omitempty"`
}

// writeCheckpointLocked serializes the controller's complete state to w.
// It runs with c.mu held: the journal invokes its State callback
// synchronously from Append (called under c.mu on every mutation path)
// and from the forced checkpoint in Close (which takes c.mu first), so
// the snapshot is always consistent with the record that triggered it.
func (c *Controller) writeCheckpointLocked(w io.Writer) error {
	doc := checkpointDoc{
		Domain:      c.dom.ExportState(),
		Assignments: c.assignments,
		AssignedAt:  c.assignedAt,
		ServedByUsr: c.servedByUsr,
		Served:      c.served,
		Meta:        make(map[trace.APID]checkpointMeta, len(c.meta)),
	}
	for id, m := range c.meta {
		doc.Meta[id] = checkpointMeta{Static: m.static, LastSeen: m.lastSeen, Gen: m.gen}
	}
	// Encode ends the document with the newline restoreCheckpoint splits on.
	if err := json.NewEncoder(w).Encode(&doc); err != nil {
		return fmt.Errorf("protocol: encode checkpoint: %w", err)
	}
	if st, ok := c.observer.(ObserverState); ok {
		if err := st.WriteState(w); err != nil {
			return fmt.Errorf("protocol: checkpoint observer state: %w", err)
		}
	}
	return nil
}

// openJournal recovers from the configured journal directory and opens
// it for appending. Called once from NewController, after the domain is
// built and before any connection is accepted, so no locking is needed —
// but replay runs through the same locked helpers the live paths use.
func (c *Controller) openJournal() error {
	opts := c.journalOpts
	opts.State = c.writeCheckpointLocked
	if opts.Logger == nil {
		opts.Logger = c.logger
	}
	j, rec, err := journal.Open(c.journalDir, opts)
	if err != nil {
		return err
	}
	sum := &RecoverySummary{Stats: rec.Stats}

	if rec.Checkpoint != nil {
		if err := c.restoreCheckpoint(rec.Checkpoint); err != nil {
			j.Close()
			return err
		}
	}
	for _, r := range rec.Records {
		if err := c.applyRecord(r); err != nil {
			sum.ReplayErrors++
			obsReplayErrs.Inc()
			c.logger.Printf("journal: replay record %d (%s): %v", r.Seq, r.Op, err)
		}
	}
	sum.APs = c.dom.Size()
	sum.Assignments = len(c.assignments)
	c.recovered = sum
	// Arm appends only now: replaying must never re-journal.
	c.jn = j
	return nil
}

// restoreCheckpoint loads a checkpoint payload: domain associations,
// assignment bookkeeping, AP lease metadata, and the observer's learned
// state when both sides support it.
func (c *Controller) restoreCheckpoint(payload []byte) error {
	// The document is one line (JSON escapes newlines inside strings);
	// the observer's state is everything after it.
	observerState := []byte(nil)
	if i := bytes.IndexByte(payload, '\n'); i >= 0 {
		payload, observerState = payload[:i], payload[i+1:]
	}
	var doc checkpointDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return fmt.Errorf("protocol: decode checkpoint: %w", err)
	}
	if len(doc.Society) > 0 {
		return errors.New("protocol: checkpoint carries a version-1 JSON observer state (\"society\"), " +
			"which is no longer read; run the previous release on this journal once, it checkpoints in the current format")
	}
	if doc.Domain != nil {
		if err := c.dom.ImportState(doc.Domain); err != nil {
			return err
		}
	}
	for u, ap := range doc.Assignments {
		c.assignments[u] = ap
	}
	for u, ts := range doc.AssignedAt {
		c.assignedAt[u] = ts
	}
	for u, b := range doc.ServedByUsr {
		c.servedByUsr[u] = b
	}
	for ap, b := range doc.Served {
		c.served[ap] = b
	}
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
