package society

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// OnlineLearner persistence: the incremental engine's checkpoint path
// serializes the learner's complete working state — raw pair tallies,
// open presences and recent-leaving windows — so a restarted controller
// resumes learning mid-presence instead of forgetting every session that
// was open at the crash.
//
// A checkpoint runs inside the association that trips it, so the format
// is sized by what dominates it: the pair tallies, hundreds of thousands
// of rows on a campus. Version 2 writes them as uvarints against an
// interned user table — no "a|b" key strings, no key sort:
//
//	byte    StateBinary
//	bytes   JSON learnerDoc: open presences, recent leavings, types (small)
//	table   every user appearing in a tallied pair
//	uvarint row count, then per pair: a b encounters coLeaves
//	        (a, b index the table and name two different users)
//
// where bytes is a uvarint length then that many bytes, and table is a
// uvarint count then that many bytes-encoded names. Version 1, one JSON
// document with the tallies as "a|b"-keyed maps, is still read for one
// release; it starts with '{', which is how ReadLearnerState tells them
// apart.

// StateBinary is the first byte of a version-2 state stream (the
// learner's here, the engine's in society/incremental).
const StateBinary = 2

const (
	learnerStateV1 = 1
	learnerStateV2 = 2
	// maxNameBytes bounds one user name and maxHeaderBytes the JSON
	// header; a longer length prefix is damage, not an allocation request.
	maxNameBytes   = 1 << 10
	maxHeaderBytes = 64 << 20
	// maxPresize caps how far a decoded count may pre-size a table before
	// the rows that justify it have been read.
	maxPresize = 1 << 16
)

// presenceDoc is one serialized open presence (see openPresence).
type presenceDoc struct {
	Starts []int64 `json:"starts"`
	Since  int64   `json:"since"`
}

// leaveDoc is one serialized recent-leaving event.
type leaveDoc struct {
	User trace.UserID `json:"user"`
	At   int64        `json:"at"`
}

// learnerDoc is the JSON part of a learner state: all of a version-1
// state, the header of a version-2 one (which leaves the tallies out).
type learnerDoc struct {
	Version    int                                         `json:"version"`
	Open       map[trace.APID]map[trace.UserID]presenceDoc `json:"open,omitempty"`
	RecentEnds map[trace.APID][]leaveDoc                   `json:"recent_ends,omitempty"`
	Encounters map[string]int                              `json:"encounters,omitempty"`
	CoLeaves   map[string]int                              `json:"co_leaves,omitempty"`
	Types      map[trace.UserID]int                        `json:"types,omitempty"`
	TypeMatrix [][]float64                                 `json:"type_matrix,omitempty"`
}

// AppendUserTable appends a user table — a uvarint count, then each name
// as a uvarint length and its bytes — to dst.
func AppendUserTable(dst []byte, users []trace.UserID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		dst = binary.AppendUvarint(dst, uint64(len(u)))
		dst = append(dst, u...)
	}
	return dst
}

// ReadUserTable reads a table written by AppendUserTable. A forged count
// costs nothing: the table grows only as names are actually read.
func ReadUserTable(br *bufio.Reader) ([]trace.UserID, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("society: user table: %w", noEOF(err))
	}
	users := make([]trace.UserID, 0, min(n, maxPresize))
	for i := uint64(0); i < n; i++ {
		name, err := readBytes(br, maxNameBytes)
		if err != nil {
			return nil, fmt.Errorf("society: user table entry %d: %w", i, err)
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

// WriteState serializes the learner's complete state to w in the
// version-2 binary format.
func (l *OnlineLearner) WriteState(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := learnerDoc{Version: learnerStateV2, Types: l.types, TypeMatrix: l.typeMatrix}
	if len(l.open) > 0 {
		doc.Open = make(map[trace.APID]map[trace.UserID]presenceDoc, len(l.open))
		for ap, users := range l.open {
			m := make(map[trace.UserID]presenceDoc, len(users))
			for u, p := range users {
				m[u] = presenceDoc{Starts: p.starts, Since: p.since}
			}
			doc.Open[ap] = m
		}
	}
	if len(l.recentEnds) > 0 {
		doc.RecentEnds = make(map[trace.APID][]leaveDoc, len(l.recentEnds))
		for ap, evs := range l.recentEnds {
			ds := make([]leaveDoc, len(evs))
			for i, ev := range evs {
				ds[i] = leaveDoc{User: ev.User, At: ev.At}
			}
			doc.RecentEnds[ap] = ds
		}
	}
	header, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("society: encode learner state: %w", err)
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
	nRows := 0
	rows := make([]byte, 0, 6*len(l.encounters))
	l.forEachPairLocked(func(p Pair, enc, col int) {
		rows = binary.AppendUvarint(rows, id(p.A))
		rows = binary.AppendUvarint(rows, id(p.B))
		rows = binary.AppendUvarint(rows, uint64(enc))
		rows = binary.AppendUvarint(rows, uint64(col))
		nRows++
	})

	head := make([]byte, 0, len(header)+16*len(names)+32)
	head = append(head, StateBinary)
	head = binary.AppendUvarint(head, uint64(len(header)))
	head = append(head, header...)
	head = AppendUserTable(head, names)
	head = binary.AppendUvarint(head, uint64(nRows))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("society: write learner state: %w", err)
	}
	if _, err := w.Write(rows); err != nil {
		return fmt.Errorf("society: write learner state: %w", err)
	}
	return nil
}

// ReadLearnerState builds a learner from a state serialized by
// WriteState (or by the previous release's JSON WriteState), under the
// given configuration (the configuration itself is not serialized:
// windows and thresholds belong to the deployment, not to the learned
// statistics). It reads exactly the state's bytes when r is a
// *bufio.Reader, so a caller can frame more data after it.
func ReadLearnerState(r io.Reader, cfg Config) (*OnlineLearner, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("society: decode learner state: %w", noEOF(err))
	}
	var doc learnerDoc
	switch first[0] {
	case '{':
		if err := json.NewDecoder(br).Decode(&doc); err != nil {
			return nil, fmt.Errorf("society: decode learner state: %w", err)
		}
		if doc.Version != learnerStateV1 {
			return nil, fmt.Errorf("society: unsupported learner state version %d", doc.Version)
		}
	case StateBinary:
		br.Discard(1)
		header, err := readBytes(br, maxHeaderBytes)
		if err != nil {
			return nil, fmt.Errorf("society: learner state header: %w", err)
		}
		if err := json.Unmarshal(header, &doc); err != nil {
			return nil, fmt.Errorf("society: decode learner state header: %w", err)
		}
		if doc.Version != learnerStateV2 {
			return nil, fmt.Errorf("society: unsupported learner state version %d", doc.Version)
		}
	default:
		return nil, fmt.Errorf("society: unrecognized learner state format (first byte %#x)", first[0])
	}

	l := NewOnlineLearner(cfg)
	for ap, users := range doc.Open {
		m := make(map[trace.UserID]*openPresence, len(users))
		for u, p := range users {
			if len(p.Starts) == 0 {
				continue
			}
			m[u] = &openPresence{starts: append([]int64(nil), p.Starts...), since: p.Since}
		}
		if len(m) > 0 {
			l.open[ap] = m
		}
	}
	for ap, evs := range doc.RecentEnds {
		out := make([]LeaveEvent, len(evs))
		for i, ev := range evs {
			out[i] = LeaveEvent{User: ev.User, AP: ap, At: ev.At}
		}
		l.recentEnds[ap] = out
	}
	if doc.Types != nil {
		// Index trusts the assignment: a row per type, square.
		for _, row := range doc.TypeMatrix {
			if len(row) != len(doc.TypeMatrix) {
				return nil, fmt.Errorf("society: learner state: type matrix is not square")
			}
		}
		for u, t := range doc.Types {
			if t < 0 {
				return nil, fmt.Errorf("society: learner state: user %q has type %d", u, t)
			}
		}
		l.types = doc.Types
		l.typeMatrix = doc.TypeMatrix
	}
	if doc.Version == learnerStateV2 {
		if err := l.readTallies(br); err != nil {
			return nil, err
		}
		return l, nil
	}
	for k, v := range doc.Encounters {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		l.encounters[p] = v
	}
	for k, v := range doc.CoLeaves {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		l.coLeaves[p] = v
	}
	return l, nil
}

// readTallies reads the user table and the pair rows of a version-2
// state into the (empty) tally maps.
func (l *OnlineLearner) readTallies(br *bufio.Reader) error {
	names, err := ReadUserTable(br)
	if err != nil {
		return err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("society: learner state rows: %w", noEOF(err))
	}
	l.encounters = make(map[Pair]int, min(n, maxPresize))
	l.coLeaves = make(map[Pair]int, min(n, maxPresize))
	for i := uint64(0); i < n; i++ {
		var f [4]uint64 // a, b, encounters, coLeaves
		for k := range f {
			if f[k], err = binary.ReadUvarint(br); err != nil {
				return fmt.Errorf("society: learner state row %d: %w", i, noEOF(err))
			}
		}
		if f[0] >= uint64(len(names)) || f[1] >= uint64(len(names)) || names[f[0]] == names[f[1]] {
			return fmt.Errorf("society: learner state row %d: bad user indices %d, %d (table has %d)",
				i, f[0], f[1], len(names))
		}
		if f[2] > math.MaxInt32 || f[3] > math.MaxInt32 {
			return fmt.Errorf("society: learner state row %d: implausible tallies %d, %d", i, f[2], f[3])
		}
		p := MakePair(names[f[0]], names[f[1]])
		if f[2] > 0 {
			l.encounters[p] = int(f[2])
		}
		if f[3] > 0 {
			l.coLeaves[p] = int(f[3])
		}
	}
	return nil
}

// TypeAssignment returns the attached type assignment and matrix (nil
// before SetTypes). Both are replaced wholesale, never mutated in place:
// read-only for the caller.
func (l *OnlineLearner) TypeAssignment() (map[trace.UserID]int, [][]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.types, l.typeMatrix
}

// ForEachPair calls fn with the raw tallies of every pair that has any
// (encounter or co-leave), in no particular order — the candidate set an
// engine rebuild restages. fn must not call back into the learner.
func (l *OnlineLearner) ForEachPair(fn func(p Pair, encounters, coLeaves int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.forEachPairLocked(fn)
}

func (l *OnlineLearner) forEachPairLocked(fn func(p Pair, encounters, coLeaves int)) {
	for p, enc := range l.encounters {
		fn(p, enc, l.coLeaves[p])
	}
	for p, col := range l.coLeaves {
		if _, ok := l.encounters[p]; !ok {
			fn(p, 0, col)
		}
	}
}
