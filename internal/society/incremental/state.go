package incremental

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"github.com/s3wlan/s3wlan/internal/journal"
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
// the engine counts by user id a row is its store entry as it stands —
// one walk, no interning. The rows come in the store's order and the
// header's maps in key order, so the bytes are a function of the state.
// It is version 2 as the releases before the id table wrote and read it;
// a stream that opens with any other version byte is refused by its
// number.

const (
	// stateVersion is the format's number: the byte that opens the stream
	// and its tally half, and the header's version field — headerOpen is
	// how every marshalled stateHeader begins.
	stateVersion = 2
	headerOpen   = `{"version":2`
	// maxNameBytes bounds one user name and maxHeaderBytes the JSON
	// header: a longer one is damage, not a user or a header.
	maxNameBytes   = 1 << 10
	maxHeaderBytes = 64 << 20
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

// sortedKeys refills keys with m's keys, in order.
func sortedKeys[K cmp.Ordered, V any](keys []K, m map[K]V) []K {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendHeader appends the JSON stateHeader: the open presences and
// recent leavings as json.Marshal writes them, keys in order, minus its
// reflection and allocations per map, spliced into typesJSON — the header
// setTypesLocked marshalled with the type assignment alone.
func (e *Engine) appendHeader(dst []byte) []byte {
	t, comma := e.live, []byte{','}
	dst = append(dst, headerOpen+`,"open":{`...)
	e.aps = sortedKeys(e.aps, t.open)
	for _, ap := range e.aps {
		dst = append(appendJSONString(dst, string(ap)), ":{"...)
		users := t.open[ap]
		e.users = sortedKeys(e.users, users)
		for _, u := range e.users {
			p := users[u]
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
	e.aps = sortedKeys(e.aps, t.recent)
	for _, ap := range e.aps {
		dst = append(appendJSONString(dst, string(ap)), ":["...)
		for _, ev := range t.recent[ap] {
			dst = append(appendJSONString(append(dst, `{"user":`...), string(ev.User)), `,"at":`...)
			dst = append(strconv.AppendInt(dst, ev.At, 10), "},"...)
		}
		dst = append(bytes.TrimSuffix(dst, comma), "],"...)
	}
	return append(append(bytes.TrimSuffix(dst, comma), '}'), e.typesJSON[len(headerOpen):]...)
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
	// The amortized sweep drops expired leavings on a schedule a restored
	// engine does not share, so a write sweeps first: the state is what
	// the next event can still count.
	t, n := e.live, e.live.numPairs
	t.compact(t.latest())
	e.header = e.appendHeader(e.header[:0])
	dst := appendUserTable(append(slices.Grow(e.state[:0], 8*n), stateVersion), t.names)
	dst = binary.AppendUvarint(append(dst, stateVersion), uint64(len(e.header)))
	dst = appendUserTable(append(dst, e.header...), t.names)
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, shard := range t.pairs {
		for _, r := range shard {
			a, b := r.key.ids()
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(a)), uint64(b))
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(r.encounters)), uint64(r.coLeaves))
		}
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
// decode leaves the engine untouched. A *bytes.Buffer is decoded in place,
// not copied: the decode keeps none of its bytes.
func (e *Engine) ReadState(r io.Reader) error {
	var data []byte
	var err error
	if b, ok := r.(*bytes.Buffer); ok {
		data = b.Next(b.Len())
	} else if data, err = io.ReadAll(r); err != nil {
		return fmt.Errorf("incremental: read engine state: %w", err)
	}
	var h stateHeader
	live, err := decodeState(journal.NewReader(data), e.cfg.Society, &h)
	if err != nil {
		return fmt.Errorf("incremental: engine state: %w", err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.live = live
	e.setTypesLocked(h.Types, h.TypeMatrix)
	e.probs = cowShards[probEntry]{}
	for _, rows := range live.pairs {
		for _, r := range rows {
			e.setProbLocked(r.key, r.tally) // in pair order: each at its shard's end
		}
	}
	e.rebuildFriendsLocked()
	e.refreshLocked()
	return nil
}

// decodeState reads one state stream into a tally core — user table,
// counts, presences, leave windows — and h, for its type assignment.
// The Reader bounds every count by the bytes left before anything is
// allocated for it; what it returns is then checked before it is
// trusted.
func decodeState(in journal.Reader, cfg society.Config, h *stateHeader) (*tallies, error) {
	live := newTallies(cfg)
	if v := in.Byte(); v != stateVersion { // 0, and Err set, for no input
		return nil, cmp.Or(in.Err(), fmt.Errorf("state version %d, this release reads %d", v, stateVersion))
	}
	if _, err := readUserTable(&in, live); err != nil {
		return nil, fmt.Errorf("seen users: %w", err)
	}
	v, header := in.Byte(), in.Str()
	switch {
	case in.Err() != nil:
		return nil, fmt.Errorf("header: %w", in.Err())
	case v != stateVersion:
		return nil, fmt.Errorf("tallies: state version %d, this release reads %d", v, stateVersion)
	case len(header) > maxHeaderBytes:
		return nil, fmt.Errorf("header: length %d exceeds limit %d", len(header), maxHeaderBytes)
	}
	if err := json.Unmarshal([]byte(header), h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if h.Version != stateVersion {
		return nil, fmt.Errorf("unsupported version %d", h.Version)
	}
	if len(h.Types) == 0 {
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

	ids, err := readUserTable(&in, live)
	if err != nil {
		return nil, fmt.Errorf("tallied users: %w", err)
	}
	n := in.Count(4) // a, b, encounters, coLeaves
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("rows: %w", err)
	}
	rows := make([]tallyRow, 0, n)
	for i := range n {
		f := [4]uint64{in.Uvarint(), in.Uvarint(), in.Uvarint(), in.Uvarint()}
		switch {
		case in.Err() != nil:
			return nil, fmt.Errorf("row %d: %w", i, in.Err())
		case f[0] >= uint64(len(ids)) || f[1] >= uint64(len(ids)) || ids[f[0]] == ids[f[1]]:
			return nil, fmt.Errorf("row %d: bad user indices %d, %d (table has %d)", i, f[0], f[1], len(ids))
		case f[2] > math.MaxInt32 || f[3] > math.MaxInt32:
			return nil, fmt.Errorf("row %d: implausible tallies %d, %d", i, f[2], f[3])
		}
		if f[2] > 0 || f[3] > 0 {
			rows = append(rows, tallyRow{makePairKey(ids[f[0]], ids[f[1]]), tally{int32(f[2]), int32(f[3])}})
		}
	}
	// Rows come in pair order, save from a writer before that order (map
	// order): sort those. Then they are one shard, split to the load.
	byOrder := func(r, s tallyRow) int { return cmp.Compare(r.key.order(), s.key.order()) }
	if !slices.IsSortedFunc(rows, byOrder) {
		slices.SortFunc(rows, byOrder)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].key == rows[i-1].key {
			return nil, fmt.Errorf("rows: pair %v listed twice", rows[i].key.pair(live.names))
		}
	}
	live.pairs[0], live.numPairs = rows, len(rows)
	for live.numPairs > rowsPerShard<<live.pairBits {
		live.split()
	}
	return live, nil
}

// readUserTable reads a table written by appendUserTable, interning its
// names in live, and returns each entry's id.
func readUserTable(in *journal.Reader, live *tallies) ([]uint32, error) {
	ids := make([]uint32, in.Count(1))
	for i := range ids {
		name := in.Str()
		if len(name) > maxNameBytes {
			return nil, fmt.Errorf("entry %d: length %d exceeds limit %d", i, len(name), maxNameBytes)
		}
		ids[i], _ = live.intern(trace.UserID(name))
	}
	return ids, in.Err()
}
