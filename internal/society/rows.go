package society

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// PairStat is what a model holds about one pair of users: the raw
// counts and, for a supported pair, P(L|E) — below Config.MinEncounters
// the estimate is noise and θ gets no first term.
type PairStat struct {
	Pair
	Encounters, CoLeaves int
	Prob                 float64
	Supported            bool
}

// pairTable is a model's pairs as sorted rows over its users ranked in
// id order: row a is entries[start[a]:start[a+1]] and lists, ascending,
// the ranks b > a that a has a count or a probability with. Nothing in
// it depends on α, so WithAlpha copies share it. The zero table is empty.
type pairTable struct {
	users     []trace.UserID          // ascending: every user in a pair or with a type
	rank      map[trace.UserID]uint32 // the inverse of users
	typeOf    []int                   // by rank; -1 for a user without a type
	start     []int                   // len(users)+1 row bounds in entries
	entries   []pairEntry
	supported int // entries that hold a probability
}

type pairEntry struct {
	b                    uint32 // the pair's larger rank
	encounters, coLeaves uint32
	supported            bool
	prob                 float64 // 0 unless supported
}

// newPairTable returns the table over the ranked users (rankUsers) with
// room for pairs entries and none yet.
func newPairTable(users []trace.UserID, rank map[trace.UserID]uint32, types map[trace.UserID]int, pairs int) pairTable {
	t := pairTable{users: users, rank: rank, typeOf: make([]int, len(users)),
		start: make([]int, len(users)+1), entries: make([]pairEntry, 0, pairs)}
	for r, u := range users {
		t.typeOf[r] = userType(types, u)
	}
	return t
}

// add appends an entry to row a; pairs arrive in (a, b) order, then seal.
func (t *pairTable) add(a uint32, e pairEntry) {
	t.entries = append(t.entries, e)
	t.start[a+1] = len(t.entries)
	if e.supported {
		t.supported++
	}
}

// seal closes the rows: one without entries ends where the one before does.
func (t *pairTable) seal() {
	for r := 1; r < len(t.start); r++ {
		t.start[r] = max(t.start[r], t.start[r-1])
	}
}

// entry returns the pair of ranks a and b's entry, zero without one.
func (t *pairTable) entry(a, b uint32) pairEntry {
	a, b = min(a, b), max(a, b)
	row := t.entries[t.start[a]:t.start[a+1]]
	i, ok := slices.BinarySearchFunc(row, b, func(e pairEntry, b uint32) int { return cmp.Compare(e.b, b) })
	if !ok {
		return pairEntry{}
	}
	return row[i]
}

// find is entry by user id; an unknown user has no pair.
func (t *pairTable) find(u, v trace.UserID) pairEntry {
	a, okA := t.rank[u]
	if b, okB := t.rank[v]; okA && okB {
		return t.entry(a, b)
	}
	return pairEntry{}
}

// NewModel assembles a model from per-pair statistics, a type assignment
// and its matrix: every model not trained here (ReadModel's,
// society/incremental's, a test's literal). It drops a pair with no count
// and no probability, orders each pair's two users and sorts the pairs,
// in place; a pair of one user, a pair listed twice — in either order —
// and a count that is negative or over 32 bits are errors naming the pair.
func NewModel(pairs []PairStat, types map[trace.UserID]int, matrix, centroids [][]float64, alpha float64) (*Model, error) {
	pairs = slices.DeleteFunc(pairs, func(p PairStat) bool { return !p.Supported && p.Encounters == 0 && p.CoLeaves == 0 })
	if types == nil {
		types = make(map[trace.UserID]int)
	}
	rank := make(map[trace.UserID]uint32, len(pairs)+len(types))
	for i := range pairs {
		p := &pairs[i]
		p.Pair = MakePair(p.A, p.B)
		rank[p.A], rank[p.B] = 0, 0
	}
	slices.SortFunc(pairs, func(p, q PairStat) int { return p.Pair.compare(q.Pair) })
	m := &Model{Types: types, TypeMatrix: matrix, Centroids: centroids, Alpha: alpha,
		pairs: newPairTable(rankUsers(rank, types), rank, types, len(pairs))}
	for i, p := range pairs {
		e := pairEntry{rank[p.B], uint32(p.Encounters), uint32(p.CoLeaves), p.Supported, p.Prob}
		switch {
		case p.A == p.B:
			return nil, fmt.Errorf("society: pair %q of one user", pairKey(p.Pair))
		case i > 0 && p.Pair == pairs[i-1].Pair:
			return nil, fmt.Errorf("society: pair %q listed twice", pairKey(p.Pair))
		case int64(e.encounters) != int64(p.Encounters) || int64(e.coLeaves) != int64(p.CoLeaves):
			return nil, fmt.Errorf("society: pair %q: counts %d, %d out of range", pairKey(p.Pair), p.Encounters, p.CoLeaves)
		case !p.Supported:
			e.prob = 0
		}
		m.pairs.add(rank[p.A], e)
	}
	m.pairs.seal()
	return m, nil
}

// Rank returns u's index in the model's users (everyone in a pair or
// with a type, ascending): its row in CloseFriendRows at any threshold.
// It is false for a user the model does not know.
func (m *Model) Rank(u trace.UserID) (int, bool) {
	r, ok := m.pairs.rank[u]
	return int(r), ok
}

// CloseFriendRows lays the θ > threshold graph out as CSR rows over the
// model's users (everyone in a pair or with a type), users ascending:
// row i is friends[start[i]:start[i+1]], ascending, and lists exactly
// the v with Index(users[i], v) > threshold, theta holding that Index bit
// for bit. A selector reads a requester's close relations off its row
// instead of evaluating Index against whoever is resident; the rows are
// the caller's.
//
// A pair without a probability has θ = α·T alone: unless some type pair's
// prior crosses the threshold by itself the rows are a filter of the table
// (two passes, no hashing); when one does, every two users are compared.
func (m *Model) CloseFriendRows(threshold float64) (users []trace.UserID, start []int, friends []trace.UserID, theta []float64) {
	t := &m.pairs
	crosses := false // some α·T alone exceeds threshold
	for i := range m.TypeMatrix {
		for j := range m.TypeMatrix {
			crosses = crosses || Prior(m.Alpha, m.TypeMatrix, i, j) > threshold
		}
	}

	// each calls f(u, v, θ(u, v)) for every relation above threshold, the
	// pairs in (a, b) order and each in both directions: row x receives
	// its smaller partners from the pairs (y, x), which all precede the
	// pairs (x, ·) that bring its larger ones, and both runs ascend. It
	// runs twice, to size the rows and to fill them: one allocation each.
	each := func(f func(u, v uint32, th float64)) {
		consider := func(u, v uint32, prob float64) {
			if th := prob + Prior(m.Alpha, m.TypeMatrix, t.typeOf[u], t.typeOf[v]); th > threshold {
				f(u, v, th)
			}
		}
		for a := range uint32(len(t.users)) {
			if !crosses {
				for _, e := range t.entries[t.start[a]:t.start[a+1]] {
					consider(a, e.b, e.prob)
					consider(e.b, a, e.prob)
				}
				continue
			}
			for b := a + 1; b < uint32(len(t.users)); b++ {
				prob := t.entry(a, b).prob
				consider(a, b, prob)
				consider(b, a, prob)
			}
		}
	}
	start = make([]int, len(t.users)+1)
	each(func(u, _ uint32, _ float64) { start[u+1]++ })
	for u := range t.users {
		start[u+1] += start[u]
	}
	next := slices.Clone(start) // by rank: where the row's next friend goes
	friends, theta = make([]trace.UserID, start[len(t.users)]), make([]float64, start[len(t.users)])
	each(func(u, v uint32, th float64) {
		friends[next[u]], theta[next[u]] = t.users[v], th
		next[u]++
	})
	return t.users, start, friends, theta
}
