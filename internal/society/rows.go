package society

import (
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// pairTable is a model's supported pairs — the keys of PairProb — as
// rows over its users ranked in sorted id order: rows[r] lists,
// ascending, the ranks r shares a PairProb entry with, P(L|E) alongside.
// It holds nothing that depends on α, so WithAlpha copies share it.
type pairTable struct {
	users  []trace.UserID // ascending: every user in a supported pair or with a type
	typeOf []int          // by rank; -1 for a user without a type
	rows   [][]partner
}

type partner struct {
	rank uint32
	prob float64
}

// newPairTable ranks, in sorted id order, the given users (repeats
// allowed) together with every user that has a type — a typed user with
// no supported pair still has prior-only relations — and returns the
// empty table with the ranking.
func newPairTable(users []trace.UserID, types map[trace.UserID]int) (*pairTable, map[trace.UserID]uint32) {
	rank := make(map[trace.UserID]uint32, len(users)+len(types))
	for _, u := range users {
		rank[u] = 0
	}
	for u := range types {
		rank[u] = 0
	}
	t := &pairTable{users: sortedKeys(rank)}
	t.typeOf, t.rows = make([]int, len(t.users)), make([][]partner, len(t.users))
	for r, u := range t.users {
		rank[u], t.typeOf[r] = uint32(r), userType(types, u)
	}
	return t, rank
}

// add records the supported pair of ranks a < b. Pairs added in (a, b)
// order leave every row sorted: row x receives its smaller partners from
// the pairs (y, x), which all precede the pairs (x, ·) it receives its
// larger partners from, and both runs arrive ascending.
func (t *pairTable) add(a, b uint32, prob float64) {
	t.rows[a] = append(t.rows[a], partner{b, prob})
	t.rows[b] = append(t.rows[b], partner{a, prob})
}

// tableFromMaps builds the pair table of a model assembled from its
// exported fields (ReadModel, a literal): the PairProb keys sorted once.
func (m *Model) tableFromMaps() *pairTable {
	pairs := make([]Pair, 0, len(m.PairProb))
	paired := make([]trace.UserID, 0, 2*len(m.PairProb))
	for p := range m.PairProb {
		if p.A < p.B { // Index reads canonical keys only
			pairs, paired = append(pairs, p), append(paired, p.A, p.B)
		}
	}
	slices.SortFunc(pairs, Pair.compare)
	t, rank := newPairTable(paired, m.Types)
	for _, p := range pairs {
		t.add(rank[p.A], rank[p.B], m.PairProb[p])
	}
	return t
}

// CloseFriendRows lays the θ > threshold graph out as CSR rows over the
// model's users (everyone in a supported pair or with a type), users
// ascending: row i is friends[start[i]:start[i+1]], ascending, and
// lists exactly the v with Index(users[i], v) > threshold, theta holding
// that Index bit for bit. A selector reads a requester's close
// relations off its row instead of evaluating Index against whoever is
// resident; the rows are the caller's.
//
// A pair without a PairProb entry has θ = α·T alone, so unless a type
// pair's prior crosses the threshold by itself a row is a filter of the
// user's supported partners — one pass over the pair table, no hashing.
// A user whose type does have such a prior is compared against every
// user, as incremental's friend-list rebuild does.
func (m *Model) CloseFriendRows(threshold float64) (users []trace.UserID, start []int, friends []trace.UserID, theta []float64) {
	t := m.pairs
	if t == nil {
		t = m.tableFromMaps()
	}
	k := len(m.TypeMatrix)
	prior := make([]float64, k*k) // α·T, as Index adds it
	crosses := make([]bool, k)    // some α·T(i, ·) alone exceeds threshold
	for i, row := range m.TypeMatrix {
		for j, v := range row[:min(k, len(row))] {
			prior[i*k+j] = m.Alpha * v
			crosses[i] = crosses[i] || prior[i*k+j] > threshold
		}
	}

	// each calls f(u, v, θ(u, v)) for every relation above threshold, in
	// row order. It runs twice — once to size the rows, once to fill them
	// — so the caller's slices are allocated once, at their final length.
	each := func(f func(u int, v uint32, th float64)) {
		for u, row := range t.rows {
			tu := t.typeOf[u]
			typed := tu >= 0 && tu < k
			consider := func(v uint32, th float64) {
				if tv := t.typeOf[v]; typed && tv >= 0 && tv < k {
					th += prior[tu*k+tv]
				}
				if th > threshold {
					f(u, v, th)
				}
			}
			if !typed || !crosses[tu] {
				for _, p := range row {
					consider(p.rank, p.prob)
				}
				continue
			}
			for v := range uint32(len(t.users)) {
				switch {
				case int(v) == u:
				case len(row) > 0 && row[0].rank == v:
					consider(v, row[0].prob)
					row = row[1:]
				default:
					consider(v, 0)
				}
			}
		}
	}
	start = make([]int, len(t.users)+1)
	each(func(u int, _ uint32, _ float64) { start[u+1]++ })
	for u := range t.users {
		start[u+1] += start[u]
	}
	n := start[len(t.users)]
	friends, theta = make([]trace.UserID, 0, n), make([]float64, 0, n)
	each(func(_ int, v uint32, th float64) {
		friends, theta = append(friends, t.users[v]), append(theta, th)
	})
	return t.users, start, friends, theta
}
