package incremental

import (
	"slices"
	"time"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// numShards buckets the pair-probability and close-friend stores so the
// events between two refreshes clone only the shards they touch
// (copy-on-write). Power of two, chosen on campus_live (600 users, 21 000
// supported pairs: 42 to a shard) where a clone should be tens of entries
// and a refresh, 48 bytes a shard, still small: 256 shards allocate
// 7.47 KiB per association and 13 KB per refresh, 512 7.05 and 27 KB
// (9 µs at 10 000 users), 1 024 6.99 and 54 KB (21 µs). A fixed count
// means shards grow with the pair population.
const (
	shardBits = 9
	numShards = 1 << shardBits
)

// cowShards is the engine's working copy of a sharded store. publish
// copies the current shards to a snapshot and from then on treats them as
// frozen: the first write to land on a shard afterwards clones it. A
// refresh therefore costs one array copy, and a snapshot shares every
// shard the following events leave alone with its successors.
type cowShards[T any] struct {
	shards [numShards][]T
	owned  [numShards]bool // cloned since the last publish: safe to write
}

// own returns shard si for writing, cloned first if a snapshot may hold it.
func (c *cowShards[T]) own(si int) *[]T {
	if !c.owned[si] {
		c.shards[si], c.owned[si] = slices.Clone(c.shards[si]), true
	}
	return &c.shards[si]
}

func (c *cowShards[T]) publish(dst *[numShards][]T) {
	*dst, c.owned = c.shards, [numShards]bool{}
}

// probEntry is one supported pair's P(L|E). A probability shard is its
// entries in pair order (pairKey.order): pointer-free, and cloned by one
// memmove.
type probEntry struct {
	key  pairKey
	prob float64
}

// order is k's place in the engine's pair stores: its Fibonacci hash (a
// key of dense ids has anything but uniform bits). The multiplier is odd,
// so no two keys share an order. A store's shard is the order's top bits
// and each shard is sorted by order, so a walk of the shards in turn
// visits the pairs in one sequence, whatever the shard count.
func (k pairKey) order() uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// shard returns k's shard in a store of 1<<bits.
func (k pairKey) shard(bits int) int { return int(k.order() >> (64 - bits)) }

// search returns the first of n rows sorted by order whose order is h
// or more, key(i) being the i-th row's: the one search of both stores.
func search(h uint64, n int, key func(int) pairKey) int {
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); key(m).order() < h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns k's place in its shard of probs, and whether it is there.
func (k pairKey) find(probs *[numShards][]probEntry) (si, i int, ok bool) {
	si = k.shard(shardBits)
	shard := probs[si]
	i = search(k.order(), len(shard), func(j int) pairKey { return shard[j].key })
	return si, i, i < len(shard) && shard[i].key == k
}

// friendsOf returns user id's close friends, sorted by name. Dense ids
// spread themselves: shard id%numShards lists its users by id/numShards.
func friendsOf(friends *[numShards][][]trace.UserID, id uint32) []trace.UserID {
	if shard, i := friends[id%numShards], int(id/numShards); i < len(shard) {
		return shard[i]
	}
	return nil
}

// Snapshot is an immutable view of the social state at one refresh. It
// holds what an association decision reads — per-pair P(L|E) with the
// type prior (θ) and every user's sorted close-friend list — and nothing
// else. Graph lays the θ-graph out from those for a caller that wants
// its components or clique cover. All methods are safe for concurrent use.
type Snapshot struct {
	// Seq increases by one per published refresh.
	Seq uint64
	// BuiltAt is the wall-clock publication time.
	BuiltAt time.Time
	// Users is the vertex count of the θ-graph (every user ever seen).
	Users int
	// Edges is the θ-graph edge count.
	Edges int

	probs   [numShards][]probEntry
	friends [numShards][][]trace.UserID
	// users is every user ever seen, in first-seen order — so by id: a
	// frozen prefix of the engine's append-only table. ids is its inverse.
	users  []trace.UserID
	ids    map[trace.UserID]uint32
	types  map[trace.UserID]int
	matrix [][]float64
	alpha  float64
}

// Index returns θ(u,v) = P(L|E) + α·T, exactly as society.Model.Index —
// a selector reading a snapshot and one reading a freshly built batch
// Model agree on every θ. Snapshot satisfies core.SocialIndex.
func (s *Snapshot) Index(u, v trace.UserID) float64 {
	if u == v {
		return 0
	}
	var theta float64
	if a, ok := s.ids[u]; ok {
		if b, ok := s.ids[v]; ok {
			if si, i, ok := makePairKey(a, b).find(&s.probs); ok {
				theta = s.probs[si][i].prob
			}
		}
	}
	tu, okU := s.types[u]
	tv, okV := s.types[v]
	if okU && okV {
		theta += society.Prior(s.alpha, s.matrix, tu, tv)
	}
	return theta
}

// CloseFriends returns u's close friends — the users v with θ(u,v)
// above the engine's edge threshold — as a sorted, read-only slice (nil
// for an unknown or isolated user): one name hash and one integer map
// hit. This is the selector's friend index.
func (s *Snapshot) CloseFriends(u trace.UserID) []trace.UserID {
	if id, ok := s.ids[u]; ok {
		return friendsOf(&s.friends, id)
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

// Model materializes a society.Model equivalent to this snapshot: the
// pairs' probabilities, Types, TypeMatrix and Alpha (the raw tallies are
// the engine's, see Engine.Model, and every count reads 0). O(pairs) —
// an interop path for batch consumers, not for per-decision use.
func (s *Snapshot) Model() *society.Model {
	var pairs []society.PairStat
	for _, shard := range s.probs {
		for _, en := range shard {
			pairs = append(pairs, society.PairStat{Pair: en.key.pair(s.users), Prob: en.prob, Supported: true})
		}
	}
	return newModel(pairs, s.types, s.matrix, s.alpha)
}
