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
	"slices"
	"strconv"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Engine persistence: the journal checkpoint captures the engine's
// learned state — the user table, the raw pair tallies, the open
// presences and recent-leaving windows, the type assignment — so a
// restarted controller resumes learning mid-presence. Derived state is
// never serialized: restore rebuilds the probabilities and friend lists
// from the tallies, which is batch-equivalent by construction, so the
// restored snapshot matches what the pre-crash engine would publish. Nor
// is the configuration: windows and thresholds belong to the deployment.
//
// A checkpoint runs inside the association that trips it, so the format
// (docs/ARCHITECTURE.md, "State format", has the layout) is sized by what
// dominates it, the tally rows: uvarints against a user table, and since
// the engine counts by user id a row is its table entry as it stands —
// one walk, no interning. It is version 2 as the releases before the id
// table wrote and read it; a stream that opens with any other version
// byte is refused by its number.

const (
	// stateVersion is the format's number: the byte that opens the stream
	// and its tally half, and the header's version field — headerOpen is
	// how every marshalled stateHeader begins.
	stateVersion = 2
	headerOpen   = `{"version":2`
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

// appendJSONString appends s as a JSON string: between quotes as it is
// when it is plain ASCII, as ids are, and through json.Marshal if not.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendHeader appends the JSON stateHeader: the open presences and
// recent leavings as json.Marshal writes them, minus its reflection and
// allocations per map, spliced into types — the header setTypesLocked
// marshalled with the type assignment alone.
func (t *tallies) appendHeader(dst, types []byte) []byte {
	comma := []byte{','}
	dst = append(dst, headerOpen+`,"open":{`...)
	for ap, users := range t.open {
		dst = append(appendJSONString(dst, string(ap)), ":{"...)
		for u, p := range users {
			dst = append(appendJSONString(dst, string(u)), `:{"since":`...)
			dst = append(strconv.AppendInt(dst, p.Since, 10), `,"starts":[`...)
			for _, start := range p.Starts {
				dst = append(strconv.AppendInt(dst, start, 10), ',')
			}
			dst = append(bytes.TrimSuffix(dst, comma), "]},"...)
		}
		dst = append(bytes.TrimSuffix(dst, comma), "},"...)
	}
	dst = append(bytes.TrimSuffix(dst, comma), `},"recent_ends":{`...)
	for ap, evs := range t.recent {
		dst = append(appendJSONString(dst, string(ap)), ":["...)
		for _, ev := range evs {
			dst = append(appendJSONString(append(dst, `{"user":`...), string(ev.User)), `,"at":`...)
			dst = append(strconv.AppendInt(dst, ev.At, 10), "},"...)
		}
		dst = append(bytes.TrimSuffix(dst, comma), "],"...)
	}
	return append(append(bytes.TrimSuffix(dst, comma), '}'), types[len(headerOpen):]...)
}

// WriteState serializes the engine's learned state to w, in one Write
// of a buffer the engine keeps across checkpoints. Derived state is
// recomputed on restore, not stored.
func (e *Engine) WriteState(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.typesJSON == nil {
		return errors.New("incremental: encode engine state: type matrix is not a JSON value")
	}
	t, users := e.live, e.live.names
	e.header = t.appendHeader(e.header[:0], e.typesJSON)
	dst := appendUserTable(append(slices.Grow(e.state[:0], 8*len(t.pairs)), stateVersion), users)
	dst = binary.AppendUvarint(append(dst, stateVersion), uint64(len(e.header)))
	dst = appendUserTable(append(dst, e.header...), users)
	dst = binary.AppendUvarint(dst, uint64(len(t.pairs)))
	for k, c := range t.pairs {
		a, b := k.ids()
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(a)), uint64(b))
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(c.encounters)), uint64(c.coLeaves))
	}
	e.state = dst
	if _, err := w.Write(dst); err != nil {
		return fmt.Errorf("incremental: write engine state: %w", err)
	}
	return nil
}

// ReadState replaces the engine's state with one serialized by
// WriteState: the tallies, open presences, user list and type
// assignment are reinstalled, and the pair index and friend lists fully
// rebuilt and published as a fresh snapshot. A state that does not
// decode leaves the engine untouched.
func (e *Engine) ReadState(r io.Reader) error {
	var h stateHeader
	live, err := decodeState(bufio.NewReader(r), e.cfg.Society, &h)
	if err != nil {
		return fmt.Errorf("incremental: engine state: %w", err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.live = live
	e.setTypesLocked(h.Types, h.TypeMatrix)
	e.probs = cowShards[probEntry]{}
	for k, t := range live.pairs {
		e.setProbLocked(k, t)
	}
	e.rebuildFriendsLocked()
	e.refreshLocked()
	return nil
}

// decodeState reads one state stream into a tally core — user table,
// counts, presences, leave windows — and h, for its type assignment.
// Every count and index is checked against what the input really holds
// before it is trusted.
func decodeState(br *bufio.Reader, cfg society.Config, h *stateHeader) (*tallies, error) {
	if err := readMarker(br); err != nil {
		return nil, err
	}
	live := newTallies(cfg)
	if _, err := readUserTable(br, live); err != nil {
		return nil, fmt.Errorf("seen users: %w", err)
	}
	if err := readMarker(br); err != nil {
		return nil, fmt.Errorf("tallies: %w", err)
	}
	header, err := readBytes(br, maxHeaderBytes)
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
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

	// Every name the stream carries is interned here, once — a user the
	// header names and the seen-user table lacks included.
	for ap, open := range h.Open {
		for u, p := range open {
			if p == nil || len(p.Starts) == 0 {
				delete(open, u)
			} else {
				p.id, _ = live.intern(u)
			}
		}
		if len(open) > 0 {
			live.open[ap] = open
		}
	}
	for _, evs := range h.RecentEnds {
		for i := range evs {
			evs[i].id, _ = live.intern(evs[i].User)
		}
	}
	if h.RecentEnds != nil {
		live.recent = h.RecentEnds
	}

	ids, err := readUserTable(br, live)
	if err != nil {
		return nil, fmt.Errorf("tallied users: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rows: %w", noEOF(err))
	}
	live.pairs = make(map[pairKey]tally, min(n, maxPresize))
	for i := uint64(0); i < n; i++ {
		var f [4]uint64 // a, b, encounters, coLeaves
		for k := range f {
			if f[k], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("row %d: %w", i, noEOF(err))
			}
		}
		if f[0] >= uint64(len(ids)) || f[1] >= uint64(len(ids)) || ids[f[0]] == ids[f[1]] {
			return nil, fmt.Errorf("row %d: bad user indices %d, %d (table has %d)", i, f[0], f[1], len(ids))
		}
		if f[2] > math.MaxInt32 || f[3] > math.MaxInt32 {
			return nil, fmt.Errorf("row %d: implausible tallies %d, %d", i, f[2], f[3])
		}
		if f[2] > 0 || f[3] > 0 {
			live.pairs[makePairKey(ids[f[0]], ids[f[1]])] = tally{int32(f[2]), int32(f[3])}
		}
	}
	return live, nil
}

// readMarker consumes the stateVersion byte that opens each half of the
// stream.
func readMarker(br *bufio.Reader) error {
	switch v, err := br.ReadByte(); {
	case err != nil:
		return noEOF(err)
	case v != stateVersion:
		return fmt.Errorf("state version %d, this release reads %d", v, stateVersion)
	}
	return nil
}

// readUserTable reads a table written by appendUserTable, interning its
// names in live, and returns each entry's id. A forged count costs
// nothing: the table grows only as names are actually read.
func readUserTable(br *bufio.Reader, live *tallies) ([]uint32, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, noEOF(err)
	}
	ids := make([]uint32, 0, min(n, maxPresize))
	for i := uint64(0); i < n; i++ {
		name, err := readBytes(br, maxNameBytes)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		id, _ := live.intern(trace.UserID(name))
		ids = append(ids, id)
	}
	return ids, nil
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
