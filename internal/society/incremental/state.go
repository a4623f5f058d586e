package incremental

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Engine persistence: the journal checkpoint captures the engine's
// learned state — the seen-user list and the learner's raw tallies and
// type assignment — and restore rebuilds the pair index and friend lists
// from scratch. Derived state is never serialized: a full rebuild from
// tallies is batch-equivalent by construction (the property tests pin
// incremental ≡ batch), so the restored snapshot matches what the
// pre-crash engine would publish.
//
// The stream is society.StateBinary, a user table (every user ever
// seen, first-seen order), then the learner's own stream (see
// society.OnlineLearner.WriteState). The previous release's JSON
// document is still read for one release.

// engineDocV1 is the previous release's serialized engine state. Its
// type assignment duplicated the learner's and is not read.
type engineDocV1 struct {
	Version int             `json:"version"`
	Users   []trace.UserID  `json:"users,omitempty"`
	Learner json.RawMessage `json:"learner"`
}

// WriteState serializes the engine's learned state to w. Derived state
// is recomputed on restore, not stored.
func (e *Engine) WriteState(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	head := society.AppendUserTable([]byte{society.StateBinary}, e.order)
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("incremental: write engine state: %w", err)
	}
	return e.learner.WriteState(w)
}

// ReadState replaces the engine's state with one serialized by
// WriteState: the learner is rebuilt from its tallies, the user list and
// type assignment reinstalled, and the pair index and friend lists fully
// rebuilt and published as a fresh snapshot. The engine's configuration
// is kept — like the learner's, it belongs to the deployment, not to
// the learned statistics.
func (e *Engine) ReadState(r io.Reader) error {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return fmt.Errorf("incremental: decode engine state: %w", err)
	}
	var users []trace.UserID
	var learner *society.OnlineLearner
	switch first[0] {
	case '{':
		var doc engineDocV1
		if err := json.NewDecoder(br).Decode(&doc); err != nil {
			return fmt.Errorf("incremental: decode engine state: %w", err)
		}
		if doc.Version != 1 {
			return fmt.Errorf("incremental: unsupported engine state version %d", doc.Version)
		}
		users = doc.Users
		learner, err = society.ReadLearnerState(bytes.NewReader(doc.Learner), e.cfg.Society)
	case society.StateBinary:
		br.Discard(1)
		if users, err = society.ReadUserTable(br); err == nil {
			learner, err = society.ReadLearnerState(br, e.cfg.Society)
		}
	default:
		err = fmt.Errorf("incremental: unrecognized engine state format (first byte %#x)", first[0])
	}
	if err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.learner = learner
	e.users = make(map[trace.UserID]struct{}, len(users))
	e.order = make([]trace.UserID, 0, len(users))
	for _, u := range users {
		if _, dup := e.users[u]; !dup {
			e.users[u] = struct{}{}
			e.order = append(e.order, u)
		}
	}
	e.setTypesLocked(learner.TypeAssignment())
	e.probs = cowMap[society.Pair, float64]{}
	learner.ForEachPair(func(p society.Pair, encounters, coLeaves int) {
		e.setProbLocked(p, encounters, coLeaves)
	})
	e.rebuildFriendsLocked()
	e.refreshLocked()
	return nil
}
