package incremental

import (
	"maps"
	"sort"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// numShards buckets the pair-probability and close-friend stores so the
// events between two refreshes clone only the shards they touch
// (copy-on-write). Power of two.
const numShards = 256

// FNV-1a, folded to a shard number.
const (
	fnvOffset = uint32(2166136261)
	fnvPrime  = uint32(16777619)
)

func fnvUser(h uint32, u trace.UserID) uint32 {
	for i := 0; i < len(u); i++ {
		h = (h ^ uint32(u[i])) * fnvPrime
	}
	return h
}

// shardOf hashes a canonical pair to its shard (FNV-1a over "A|B").
func shardOf(p society.Pair) int {
	h := fnvUser(fnvOffset, p.A)
	h = (h ^ '|') * fnvPrime
	return int(fnvUser(h, p.B) & (numShards - 1))
}

// shardOfUser hashes a user to its close-friend shard.
func shardOfUser(u trace.UserID) int {
	return int(fnvUser(fnvOffset, u) & (numShards - 1))
}

// cowMap is the engine's working copy of a sharded store. publish hands
// the current shard maps to a snapshot and from then on treats them as
// frozen: the first write to land on a shard afterwards clones it. A
// refresh therefore costs one array copy, and a snapshot shares every
// shard the following events leave alone with its successors.
type cowMap[K comparable, V any] struct {
	shards [numShards]map[K]V
	owned  [numShards]bool // cloned since the last publish: safe to write
}

// writable returns shard si, cloned first if a snapshot may hold it.
func (c *cowMap[K, V]) writable(si int) map[K]V {
	if !c.owned[si] {
		fresh := maps.Clone(c.shards[si])
		if fresh == nil {
			fresh = make(map[K]V)
		}
		c.shards[si], c.owned[si] = fresh, true
	}
	return c.shards[si]
}

func (c *cowMap[K, V]) publish() [numShards]map[K]V {
	c.owned = [numShards]bool{}
	return c.shards
}

// pairIndex is an immutable, sharded view of the learned social state:
// per-pair P(L|E) plus the type prior. It mirrors society.Model.Index
// exactly, so a selector reading a snapshot and one reading a freshly
// built batch Model agree on every θ.
type pairIndex struct {
	shards [numShards]map[society.Pair]float64
	types  map[trace.UserID]int
	matrix [][]float64
	alpha  float64
}

// Index computes θ(u,v) = P(L|E) + α·T, exactly as society.Model.Index.
func (px *pairIndex) Index(u, v trace.UserID) float64 {
	if u == v {
		return 0
	}
	p := society.MakePair(u, v)
	theta := px.shards[shardOf(p)][p]
	tu, okU := px.types[u]
	tv, okV := px.types[v]
	if okU && okV && tu < len(px.matrix) && tv < len(px.matrix) {
		theta += px.alpha * px.matrix[tu][tv]
	}
	return theta
}

// Snapshot is an immutable view of the social state at one refresh. It
// holds what an association decision reads — the pair index (θ) and
// every user's sorted close-friend list — and nothing else. Connected
// components, the θ-graph and the clique cover are derived from those
// on first request and memoized; a snapshot nobody asks never pays for
// them. All methods are safe for unlimited concurrent use.
type Snapshot struct {
	// Seq increases by one per published refresh.
	Seq uint64
	// BuiltAt is the wall-clock publication time.
	BuiltAt time.Time
	// Users is the vertex count of the θ-graph (every user ever seen).
	Users int
	// Edges is the θ-graph edge count.
	Edges int

	index   *pairIndex
	friends [numShards]map[trace.UserID][]trace.UserID
	// users is every user ever seen, in first-seen order: a frozen prefix
	// of the engine's append-only list.
	users []trace.UserID

	compsOnce sync.Once
	comps     [][]trace.UserID

	coverOnce sync.Once
	cover     [][]trace.UserID
}

// Index returns θ(u,v); Snapshot satisfies core.SocialIndex.
func (s *Snapshot) Index(u, v trace.UserID) float64 { return s.index.Index(u, v) }

// CloseFriends returns u's close friends — the users v with θ(u,v)
// above the engine's edge threshold — as a sorted, read-only slice (nil
// for an unknown or isolated user): one hash and one map hit. This is
// the selector's friend index.
func (s *Snapshot) CloseFriends(u trace.UserID) []trace.UserID {
	return s.friends[shardOfUser(u)][u]
}

// components returns the connected components of the θ-graph, each
// sorted (isolated users are singletons). O(users + edges) on first
// call, memoized.
func (s *Snapshot) components() [][]trace.UserID {
	s.compsOnce.Do(func() {
		seen := make(map[trace.UserID]bool, len(s.users))
		for _, start := range s.users {
			if seen[start] {
				continue
			}
			seen[start] = true
			comp := []trace.UserID{start}
			for i := 0; i < len(comp); i++ {
				for _, v := range s.CloseFriends(comp[i]) {
					if !seen[v] {
						seen[v] = true
						comp = append(comp, v)
					}
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
			s.comps = append(s.comps, comp)
		}
	})
	return s.comps
}

// NumComponents returns the number of connected components (isolated
// users count as singletons). Derived on demand; diagnostic use.
func (s *Snapshot) NumComponents() int { return len(s.components()) }

// ComponentOf returns the sorted member list of the component containing
// u, or nil if u is unknown. Derived on demand; diagnostic use.
func (s *Snapshot) ComponentOf(u trace.UserID) []trace.UserID {
	for _, c := range s.components() {
		i := sort.Search(len(c), func(i int) bool { return c[i] >= u })
		if i < len(c) && c[i] == u {
			return c
		}
	}
	return nil
}

// Graph materializes the full θ-graph, edge weights read from Index
// (O(V+E) — a debugging and equivalence-testing path, not a hot one).
// The result is a fresh copy.
func (s *Snapshot) Graph() *socialgraph.Graph {
	g := socialgraph.New()
	for _, u := range s.users {
		g.AddVertex(u)
		for _, v := range s.CloseFriends(u) {
			if u < v {
				g.AddEdge(u, v, s.Index(u, v))
			}
		}
	}
	return g
}

// Cover returns the clique cover of the whole θ-graph in canonical
// order (largest cliques first, ties lexicographic) — the same
// partition batch ExtractCliqueCover produces on the equivalent graph.
// Nothing on the serving path reads it, so nothing maintains it: the
// first call extracts it component by component (iterated maximum
// clique — about what a from-scratch cover of the graph costs) and the
// snapshot keeps the result. Callers must treat it (and its cliques) as
// read-only.
func (s *Snapshot) Cover() [][]trace.UserID {
	s.coverOnce.Do(func() {
		g := s.Graph()
		cover := make([][]trace.UserID, 0, len(s.users))
		for _, comp := range s.components() {
			cover = append(cover, socialgraph.ExtractCliqueCover(g.InducedSubgraph(comp))...)
		}
		socialgraph.SortCover(cover)
		obsCliques.Add(int64(len(cover)))
		s.cover = cover
	})
	return s.cover
}

// Model materializes a society.Model equivalent to this snapshot's pair
// index: PairProb, Types, TypeMatrix and Alpha are populated (the raw
// Encounters/CoLeaves tallies are the engine's, see Engine.Model, and
// are left nil). O(pairs) — an interop path for batch consumers and
// persistence, not for per-decision use; Index on the snapshot itself
// is the hot path.
func (s *Snapshot) Model() *society.Model {
	m := &society.Model{PairProb: make(map[society.Pair]float64), Alpha: s.index.alpha}
	for _, sh := range s.index.shards {
		for p, v := range sh {
			m.PairProb[p] = v
		}
	}
	m.Types, m.TypeMatrix = cloneTypes(s.index.types, s.index.matrix)
	return m
}
