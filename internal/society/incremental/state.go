package incremental

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Engine persistence: the journal checkpoint captures the engine's
// learned state — the seen-user list, the raw pair tallies, the open
// presences and recent-leaving windows, the type assignment — so a
// restarted controller resumes learning mid-presence instead of
// forgetting every session that was open at the crash. Derived state is
// never serialized: restore rebuilds the pair index and friend lists
// from the tallies, which is batch-equivalent by construction (the
// property tests pin incremental ≡ batch), so the restored snapshot
// matches what the pre-crash engine would publish. Nor is the
// configuration: windows and thresholds belong to the deployment, not
// to the learned statistics.
//
// A checkpoint runs inside the association that trips it, so the format
// is sized by what dominates it: the pair tallies, tens of thousands of
// rows on a campus. They are uvarints against an interned user table —
// no "a|b" key strings, no key sort:
//
//	byte    stateVersion
//	table   every user ever seen, first-seen order
//	byte    stateVersion
//	bytes   JSON stateHeader: open presences, recent leavings, types (small)
//	table   every user appearing in a tallied pair
//	uvarint row count, then per pair: a b encounters coLeaves
//	        (a, b index the second table and name two different users)
//
// where bytes is a uvarint length then that many bytes, and table is a
// uvarint count then that many bytes-encoded names. (The version byte
// appears twice because the stream used to be two nested ones, the
// engine's around the OnlineLearner's; checkpoints written then still
// restore.) Version 1, a JSON document, starts with '{' and is refused
// by name.

const (
	// stateVersion is the format's number: the byte that opens the stream
	// and its tally half, and the header's version field.
	stateVersion = 2
	// maxNameBytes bounds one user name and maxHeaderBytes the JSON
	// header; a longer length prefix is damage, not an allocation request.
	maxNameBytes   = 1 << 10
	maxHeaderBytes = 64 << 20
	// maxPresize caps how far a decoded count may pre-size a table before
	// the rows that justify it have been read.
	maxPresize = 1 << 16
)

// stateHeader is the JSON part of a state stream: everything but the
// user tables and the tallies.
type stateHeader struct {
	Version    int                                       `json:"version"`
	Open       map[trace.APID]map[trace.UserID]*presence `json:"open,omitempty"`
	RecentEnds map[trace.APID][]leave                    `json:"recent_ends,omitempty"`
	Types      map[trace.UserID]int                      `json:"types,omitempty"`
	TypeMatrix [][]float64                               `json:"type_matrix,omitempty"`
}

// appendUserTable appends a user table — a uvarint count, then each name
// as a uvarint length and its bytes — to dst.
func appendUserTable(dst []byte, users []trace.UserID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		dst = binary.AppendUvarint(dst, uint64(len(u)))
		dst = append(dst, u...)
	}
	return dst
}

// WriteState serializes the engine's learned state to w. Derived state
// is recomputed on restore, not stored.
func (e *Engine) WriteState(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	header, err := json.Marshal(stateHeader{Version: stateVersion,
		Open: e.live.open, RecentEnds: e.live.recent, Types: e.types, TypeMatrix: e.matrix})
	if err != nil {
		return fmt.Errorf("incremental: encode engine state: %w", err)
	}

	// The rows reference the table and the table must precede them, so
	// rows are staged while the table is discovered.
	ids := make(map[trace.UserID]uint64)
	var names []trace.UserID
	id := func(u trace.UserID) uint64 {
		i, ok := ids[u]
		if !ok {
			i = uint64(len(names))
			ids[u] = i
			names = append(names, u)
		}
		return i
	}
	rows := make([]byte, 0, 6*len(e.live.pairs))
	for p, t := range e.live.pairs {
		rows = binary.AppendUvarint(rows, id(p.A))
		rows = binary.AppendUvarint(rows, id(p.B))
		rows = binary.AppendUvarint(rows, uint64(t.encounters))
		rows = binary.AppendUvarint(rows, uint64(t.coLeaves))
	}

	head := make([]byte, 0, len(header)+16*(len(e.order)+len(names))+32)
	head = appendUserTable(append(head, stateVersion), e.order)
	head = binary.AppendUvarint(append(head, stateVersion), uint64(len(header)))
	head = appendUserTable(append(head, header...), names)
	head = binary.AppendUvarint(head, uint64(len(e.live.pairs)))
	for _, part := range [][]byte{head, rows} {
		if _, err := w.Write(part); err != nil {
			return fmt.Errorf("incremental: write engine state: %w", err)
		}
	}
	return nil
}

// ReadState replaces the engine's state with one serialized by
// WriteState: the tallies, open presences, user list and type
// assignment are reinstalled, and the pair index and friend lists fully
// rebuilt and published as a fresh snapshot. A state that does not
// decode leaves the engine untouched.
func (e *Engine) ReadState(r io.Reader) error {
	st, err := decodeState(bufio.NewReader(r), e.cfg.Society)
	if err != nil {
		return fmt.Errorf("incremental: engine state: %w", err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.live = st.live
	e.users = make(map[trace.UserID]struct{}, len(st.users))
	e.order = make([]trace.UserID, 0, len(st.users))
	for _, u := range st.users {
		if _, dup := e.users[u]; !dup {
			e.users[u] = struct{}{}
			e.order = append(e.order, u)
		}
	}
	e.setTypesLocked(st.header.Types, st.header.TypeMatrix)
	e.probs = cowMap[society.Pair, float64]{}
	for p, t := range st.live.pairs {
		e.setProbLocked(p, t)
	}
	e.rebuildFriendsLocked()
	e.refreshLocked()
	return nil
}

// decodedState is one state stream, read and checked: the seen-user
// list, a tally core holding the counts, presences and leave windows,
// and the header for its type assignment.
type decodedState struct {
	users  []trace.UserID
	live   *tallies
	header stateHeader
}

// decodeState reads one state stream. Every count and index is checked
// against what the input really holds before it is trusted.
func decodeState(br *bufio.Reader, cfg society.Config) (*decodedState, error) {
	if err := readMarker(br); err != nil {
		return nil, err
	}
	users, err := readUserTable(br)
	if err != nil {
		return nil, fmt.Errorf("seen users: %w", err)
	}
	if err := readMarker(br); err != nil {
		return nil, fmt.Errorf("tallies: %w", err)
	}
	header, err := readBytes(br, maxHeaderBytes)
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	st := &decodedState{users: users, live: newTallies(cfg)}
	h, live := &st.header, st.live
	if err := json.Unmarshal(header, h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if h.Version != stateVersion {
		return nil, fmt.Errorf("unsupported version %d", h.Version)
	}
	if h.Types == nil {
		h.TypeMatrix = nil // never consulted without an assignment
	}
	// Index trusts the assignment: a row per type, square.
	for _, row := range h.TypeMatrix {
		if len(row) != len(h.TypeMatrix) {
			return nil, errors.New("type matrix is not square")
		}
	}
	for u, t := range h.Types {
		if t < 0 {
			return nil, fmt.Errorf("user %q has type %d", u, t)
		}
	}

	for ap, open := range h.Open {
		for u, p := range open {
			if p == nil || len(p.Starts) == 0 {
				delete(open, u)
			}
		}
		if len(open) > 0 {
			live.open[ap] = open
		}
	}
	if h.RecentEnds != nil {
		live.recent = h.RecentEnds
	}

	names, err := readUserTable(br)
	if err != nil {
		return nil, fmt.Errorf("tallied users: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rows: %w", noEOF(err))
	}
	live.pairs = make(map[society.Pair]tally, min(n, maxPresize))
	for i := uint64(0); i < n; i++ {
		var f [4]uint64 // a, b, encounters, coLeaves
		for k := range f {
			if f[k], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("row %d: %w", i, noEOF(err))
			}
		}
		if f[0] >= uint64(len(names)) || f[1] >= uint64(len(names)) || names[f[0]] == names[f[1]] {
			return nil, fmt.Errorf("row %d: bad user indices %d, %d (table has %d)", i, f[0], f[1], len(names))
		}
		if f[2] > math.MaxInt32 || f[3] > math.MaxInt32 {
			return nil, fmt.Errorf("row %d: implausible tallies %d, %d", i, f[2], f[3])
		}
		if f[2] > 0 || f[3] > 0 {
			live.pairs[society.MakePair(names[f[0]], names[f[1]])] = tally{int(f[2]), int(f[3])}
		}
	}
	return st, nil
}

// readMarker consumes the stateVersion byte that opens each half of the
// stream, naming the retired JSON format if that is what it finds.
func readMarker(br *bufio.Reader) error {
	switch first, err := br.ReadByte(); {
	case err != nil:
		return noEOF(err)
	case first == '{':
		return errors.New("this is the version-1 JSON format, which is no longer read " +
			"(run the previous release on it once: it checkpoints in the binary format)")
	case first != stateVersion:
		return fmt.Errorf("unrecognized format (first byte %#x)", first)
	}
	return nil
}

// readUserTable reads a table written by appendUserTable. A forged count
// costs nothing: the table grows only as names are actually read.
func readUserTable(br *bufio.Reader) ([]trace.UserID, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, noEOF(err)
	}
	users := make([]trace.UserID, 0, min(n, maxPresize))
	for i := uint64(0); i < n; i++ {
		name, err := readBytes(br, maxNameBytes)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		users = append(users, trace.UserID(name))
	}
	return users, nil
}

// readBytes reads a uvarint length (at most limit) and that many bytes,
// allocating only as far as the input really goes.
func readBytes(br *bufio.Reader, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, noEOF(err)
	}
	if n > limit {
		return nil, fmt.Errorf("length %d exceeds limit %d", n, limit)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, int64(n)); err != nil {
		return nil, noEOF(err)
	}
	return buf.Bytes(), nil
}

// noEOF turns an end of input in the middle of a state into the error it
// is: io.EOF means "nothing to read" to callers, never "truncated".
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
