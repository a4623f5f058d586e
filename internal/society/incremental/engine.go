// Package incremental is the live sociality learner: it counts
// encounters and co-leavings as Connect/Disconnect events arrive and
// keeps what an S³ association decision reads — θ for any pair and
// every user's close-friend list — current at a cost that follows the
// change, never the population.
//
// It is the second of the repository's two θ learners, on purpose.
// Batch society.Train counts an encounter per overlapping session pair,
// and the paper-facing numbers are pinned to that. This package counts
// one per presence: a user's stacked overlapping sessions on one AP are
// one continuous presence, so no co-presence period is tallied twice.
// Co-leavings are counted alike, and on a trace without stacked
// sessions the two tally sets are equal (TestLiveTalliesAgainstBatch).
// From the counts on, θ is society's: society.CoLeaveProb and
// society.Prior, so a snapshot's θ is a Model's to the bit.
//
// Deriving selector-ready state the batch way (FromThreshold and
// ExtractCliqueCover over a Model) is a rebuild per refresh: O(n²) θ
// evaluations plus iterated maximum-clique over the whole population.
// But behavioural groups in an enterprise WLAN are small next to the
// population (Hsu, Dutta & Helmy), so one session end perturbs only the
// handful of pairs the leaving user co-resided with. The engine exploits
// that:
//
//   - users get dense ids in first-seen order (tally.go); every table is
//     keyed by id or by a packed id pair, so an event hashes its one name;
//   - every Disconnect yields exactly the pairs whose counts moved, each
//     once, with its new counts; the engine recomputes those θ values and,
//     for a pair that crossed the edge threshold, patches the sorted
//     friend lists of its two endpoints — nothing else. One mutex; the
//     tallies in sorted shards never published, so never cloned;
//   - the probability and friend stores are sharded and copy-on-write
//     (snapshot.go): a refresh is two array copies publishing the working
//     state as an immutable Snapshot behind an atomic.Pointer, and the
//     events that follow clone only the shards they write — a few dozen
//     16-byte entries each. Selectors and the controller's Associate path
//     read θ and friend lists lock-free while the engine keeps learning;
//   - nothing else is kept: Snapshot.Graph lays the θ-graph out from the
//     two stores for a caller that wants its components or clique cover.
//     The serving path never asks, so it never solves a clique.
//
// Equivalence is the correctness bar: after any refresh the snapshot's
// friend lists, graph and cover match batch FromThreshold +
// ExtractCliqueCover over a Model derived from the raw tallies alone
// (see the property tests). SetTypes is the one global operation — a
// new type assignment moves every θ — and rebuilds every friend list.
package incremental

import (
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Refresh observability: edge churn per refresh, the refresh latency,
// and the age of the state a new snapshot replaces.
var (
	obsEvents    = obs.GetCounter("society.inc.events", "Connect/Disconnect events learned by the incremental engine")
	obsEdgesChg  = obs.GetCounter("society.inc.edges_changed", "θ-graph edges added or removed across refreshes")
	obsRefreshes = obs.GetCounter("society.inc.refreshes", "Snapshot refreshes published (periodic, event-count and manual)")
	obsFull      = obs.GetCounter("society.inc.full_rebuilds", "Full friend-list rebuilds (SetTypes changes the type prior; state restore)")
	obsRefresh   = obs.GetHistogram("society.inc.refresh", "Latency of one snapshot publication")
	obsSnapAge   = obs.GetHistogram("society.inc.snapshot_age", "Age of the snapshot a refresh replaces")
	obsSeq       = obs.GetGauge("society.inc.snapshot_seq", "Sequence number of the published social snapshot")
	obsUsers     = obs.GetGauge("society.inc.users", "Users tracked in the published social snapshot")
	obsEdges     = obs.GetGauge("society.inc.edges", "θ > threshold edges in the published social snapshot")
)

// Config parameterizes the engine.
type Config struct {
	// Society holds the learner parameters (windows, support, α).
	Society society.Config
	// EdgeThreshold is the θ cut above which a pair is an edge of the
	// social graph; the paper uses 0.3. Defaulted when ≤ 0.
	EdgeThreshold float64
	// RefreshEvents, when > 0, auto-publishes a refresh after that many
	// mutating events (connects + disconnects) since the last one. Set 0
	// for purely manual / periodic refreshing.
	RefreshEvents int
}

// DefaultConfig returns the paper's operating point with auto-refresh
// every 256 events.
func DefaultConfig() Config {
	return Config{Society: society.DefaultConfig(), EdgeThreshold: 0.3, RefreshEvents: 256}
}

// Engine is the incremental social-state engine. Event methods
// (Connect, Disconnect, SetTypes) and Refresh serialize on an internal
// mutex; Index, CloseFriends and Snapshot are lock-free reads of the
// last published snapshot and may run concurrently with everything else.
//
// Engine implements wlan.AssociationObserver (learn from a simulation or,
// as protocol.AssociationObserver, from a live controller) and
// core.SocialIndex (drive a selector), so one instance closes the loop:
// controller events in, association decisions out.
type Engine struct {
	cfg Config

	mu sync.Mutex
	// live holds the raw counts everything below is derived from, and the
	// user ids that key all of it.
	live *tallies
	// The working state events write and a refresh publishes: P(L|E) per
	// supported pair, each user's sorted θ-graph neighbors, the edge count.
	probs   cowShards[probEntry]
	friends cowShards[[]trace.UserID]
	edges   int

	// Current type assignment (replaced wholesale by SetTypes; the maps
	// are shared with published snapshots and never mutated in place).
	// typeOf is the same assignment by user id (-1: none); typesJSON the
	// state header holding it (nil: not encodable), marshalled once rather
	// than per checkpoint.
	types     map[trace.UserID]int
	matrix    [][]float64
	typeOf    []int
	typesJSON []byte
	// byType lists seen users per type; consulted only when some type
	// pair's α·T prior alone crosses the edge threshold.
	byType     map[int][]uint32
	priorCross [][]bool
	anyCross   bool

	// Since the last refresh.
	edgesChanged int
	rebuilt      bool
	events       int

	seq  uint64
	snap atomic.Pointer[Snapshot]

	// WriteState's JSON header and whole stream, and the keys it sorts,
	// kept across checkpoints.
	header, state []byte
	aps           []trace.APID
	users         []trace.UserID
}

// New builds an engine and publishes an initial empty snapshot, so
// Index and Snapshot work before any event arrives.
func New(cfg Config) *Engine {
	if cfg.EdgeThreshold <= 0 {
		cfg.EdgeThreshold = 0.3
	}
	e := &Engine{cfg: cfg, live: newTallies(cfg.Society)}
	e.setTypesLocked(nil, nil)
	e.snap.Store(&Snapshot{BuiltAt: time.Now(), alpha: cfg.Society.Alpha})
	return e
}

// Snapshot returns the last published snapshot (never nil).
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Index returns θ(u,v) from the last published snapshot, lock-free.
// Engine satisfies core.SocialIndex: handed to core.NewSelector, it
// hot-swaps its state under the running selector on every refresh.
func (e *Engine) Index(u, v trace.UserID) float64 { return e.snap.Load().Index(u, v) }

// CloseFriends returns u's θ-graph neighbors in the last published
// snapshot (sorted, read-only, lock-free). With FriendThreshold, Engine
// satisfies core.FriendIndex: the selector's precomputed-friend path.
func (e *Engine) CloseFriends(u trace.UserID) []trace.UserID {
	return e.snap.Load().CloseFriends(u)
}

// FriendThreshold returns the θ cut above which CloseFriends lists a
// pair — the engine's edge threshold.
func (e *Engine) FriendThreshold() float64 { return e.cfg.EdgeThreshold }

// Connect records a user associating with an AP. First sight of a user
// adds a vertex (isolated until its first edge).
func (e *Engine) Connect(u trace.UserID, ap trace.APID, ts int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id, fresh := e.live.connect(u, ap, ts); fresh {
		e.addUserLocked(id)
	}
	e.bumpLocked()
}

// Disconnect records a user leaving an AP, recomputing θ for every pair
// the event's encounter/co-leave updates touched.
func (e *Engine) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	touched, err := e.live.disconnect(u, ap, ts)
	if err != nil {
		return err
	}
	for _, tp := range touched {
		e.updatePairLocked(tp.key, tp.tally)
	}
	e.bumpLocked()
	return nil
}

// SetTypes attaches a fresh type assignment (from periodic batch
// clustering). Every θ may move, so every friend list is rebuilt from
// the pair index — the one operation whose cost follows the population.
func (e *Engine) SetTypes(types map[trace.UserID]int, matrix [][]float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.setTypesLocked(types, matrix)
	e.rebuildFriendsLocked()
	e.bumpLocked()
}

// setTypesLocked installs a type assignment: private copies of the maps,
// their state-header form, the by-id view, and the prior-crossing index
// consulted when a type pair's α·T alone crosses the edge threshold. It
// leaves the friend lists and the event counter to its callers.
func (e *Engine) setTypesLocked(types map[trace.UserID]int, matrix [][]float64) {
	e.types, e.matrix = cloneTypes(types, matrix)
	e.typesJSON, _ = json.Marshal(stateHeader{Version: stateVersion, Types: e.types, TypeMatrix: e.matrix}) // nil on error: WriteState reports it
	// Which type pairs cross the threshold on the prior alone? Those
	// connect every member pair regardless of encounter history.
	e.priorCross, e.anyCross = make([][]bool, len(e.matrix)), false
	for i, row := range e.matrix {
		e.priorCross[i] = make([]bool, len(row))
		for j := range row {
			e.priorCross[i][j] = society.Prior(e.cfg.Society.Alpha, e.matrix, i, j) > e.cfg.EdgeThreshold
			e.anyCross = e.anyCross || e.priorCross[i][j]
		}
	}
	e.byType = make(map[int][]uint32)
	e.typeOf = e.typeOf[:0]
	for id := range e.live.names {
		e.typeUserLocked(uint32(id))
	}
}

// typeUserLocked extends the by-id type assignment to the next user id
// and returns the user's type (-1: none).
func (e *Engine) typeUserLocked(id uint32) int {
	t, typed := e.types[e.live.names[id]]
	if !typed || t < 0 {
		t = -1
	} else {
		e.byType[t] = append(e.byType[t], id)
	}
	e.typeOf = append(e.typeOf, t)
	return t
}

// Model derives a society.Model from the raw tallies alone — every
// pair's counts and the probability they support, the current type
// assignment — without consulting the incrementally patched stores.
// O(pairs) under the engine's mutex: not for per-decision use.
func (e *Engine) Model() *society.Model {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live.model(e.types, e.matrix)
}

// Refresh publishes the working state as a new snapshot: two array
// copies, whatever happened since the last one.
func (e *Engine) Refresh() RefreshStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.refreshLocked()
}

// RefreshStats summarizes one refresh.
type RefreshStats struct {
	// Seq is the published snapshot's sequence number.
	Seq uint64
	// EdgesChanged counts θ-graph edge insertions and removals since the
	// previous refresh.
	EdgesChanged int
	// Full reports that every friend list was rebuilt since the previous
	// refresh (SetTypes, state restore).
	Full bool
	// Took is the wall-clock refresh duration.
	Took time.Duration
}

// bumpLocked counts a mutating event and auto-refreshes at the
// configured churn threshold.
func (e *Engine) bumpLocked() {
	obsEvents.Inc()
	e.events++
	if e.cfg.RefreshEvents > 0 && e.events >= e.cfg.RefreshEvents {
		e.refreshLocked()
	}
}

// addUserLocked registers a first-seen user as a vertex. If the user's
// type prior alone connects it to some existing users (rare — requires
// α·T above the threshold), those edges, with no tallies yet, are added
// immediately.
func (e *Engine) addUserLocked(u uint32) {
	tu := e.typeUserLocked(u)
	if tu < 0 || !e.anyCross || tu >= len(e.priorCross) {
		return
	}
	for tv, cross := range e.priorCross[tu] {
		if !cross {
			continue
		}
		for _, v := range e.byType[tv] {
			if v != u {
				e.updatePairLocked(makePairKey(u, v), tally{})
			}
		}
	}
}

// updatePairLocked recomputes θ for one pair from its current counts
// and brings the working state in line: the pair's probability and, only
// when θ crossed the edge threshold, its two endpoints' friend lists.
func (e *Engine) updatePairLocked(k pairKey, t tally) {
	a, b := k.ids()
	theta := e.setProbLocked(k, t) + e.priorLocked(a, b)
	present := theta > e.cfg.EdgeThreshold
	if _, had := slices.BinarySearch(friendsOf(&e.friends.shards, a), e.live.names[b]); had == present {
		return
	}
	e.patchFriendsLocked(a, b, present)
	e.patchFriendsLocked(b, a, present)
	if present {
		e.edges++
	} else {
		e.edges--
	}
	e.edgesChanged++
}

// setProbLocked records a pair's support-passing co-leave probability
// in the working pair index and returns it (0 below the support
// threshold, where — encounters only ever grow — no entry exists yet).
func (e *Engine) setProbLocked(k pairKey, t tally) float64 {
	prob, ok := society.CoLeaveProb(int(t.encounters), int(t.coLeaves), e.cfg.Society.MinEncounters)
	if !ok {
		return 0
	}
	si, i, had := k.find(&e.probs.shards)
	if !had {
		shard := e.probs.own(si)
		*shard = slices.Insert(*shard, i, probEntry{k, prob})
	} else if e.probs.shards[si][i].prob != prob {
		(*e.probs.own(si))[i].prob = prob
	}
	return prob
}

// patchFriendsLocked adds v to (or removes it from) u's sorted friend
// list. The list a snapshot may hold is never written: the patch builds
// a new one.
func (e *Engine) patchFriendsLocked(u, friend uint32, add bool) {
	v, old := e.live.names[friend], friendsOf(&e.friends.shards, u)
	i, _ := slices.BinarySearch(old, v)
	var list []trace.UserID // nil again when the last friend goes
	if add {
		// Full capacity makes Insert allocate instead of shifting in place.
		list = slices.Insert(old[:len(old):len(old)], i, v)
	} else if len(old) > 1 {
		list = slices.Delete(slices.Clone(old), i, i+1)
	}
	shard := e.friends.own(int(u % numShards))
	for len(*shard) <= int(u/numShards) {
		*shard = append(*shard, nil)
	}
	(*shard)[u/numShards] = list
}

// priorLocked returns the α·T term for (u,v) under the current types.
func (e *Engine) priorLocked(u, v uint32) float64 {
	return society.Prior(e.cfg.Society.Alpha, e.matrix, e.typeOf[u], e.typeOf[v])
}

// refreshLocked publishes the working state as a new immutable
// snapshot. The shard maps it hands over are frozen from here on; the
// next event to write one clones it first.
func (e *Engine) refreshLocked() RefreshStats {
	start := time.Now()
	e.seq++
	stats := RefreshStats{Seq: e.seq, EdgesChanged: e.edgesChanged, Full: e.rebuilt}
	prev := e.snap.Load()
	names := e.live.names
	e.live.idsLent = true // to the snapshot: the next new user copies ids first
	snap := &Snapshot{
		Seq: e.seq, BuiltAt: start, Users: len(names), Edges: e.edges,
		users: names[:len(names):len(names)], ids: e.live.ids,
		types: e.types, matrix: e.matrix, alpha: e.cfg.Society.Alpha,
	}
	e.probs.publish(&snap.probs)
	e.friends.publish(&snap.friends)
	e.snap.Store(snap)
	e.edgesChanged, e.rebuilt, e.events = 0, false, 0

	stats.Took = time.Since(start)
	obsRefreshes.Inc()
	if stats.Full {
		obsFull.Inc()
	}
	obsEdgesChg.Add(int64(stats.EdgesChanged))
	obsRefresh.Observe(stats.Took)
	if prev.Seq > 0 {
		obsSnapAge.Observe(snap.BuiltAt.Sub(prev.BuiltAt))
	}
	obsSeq.Set(int64(e.seq))
	obsUsers.Set(int64(snap.Users))
	obsEdges.Set(int64(e.edges))
	return stats
}

// rebuildFriendsLocked recomputes every friend list from the working
// probabilities — the batch-equivalent path taken after SetTypes and
// state restore. Candidate edges are the pairs with a probability plus,
// only when some α·T prior alone crosses the threshold, the member pairs
// of those type pairs; every other pair has θ = α·T ≤ threshold, which
// keeps the rebuild at O(support pairs), not O(n²).
func (e *Engine) rebuildFriendsLocked() {
	names := e.live.names
	adj := make([][]trace.UserID, len(names))
	e.edges = 0
	link := func(u, v uint32) {
		adj[u] = append(adj[u], names[v])
		adj[v] = append(adj[v], names[u])
		e.edges++
	}
	for _, shard := range e.probs.shards {
		for _, en := range shard {
			if a, b := en.key.ids(); en.prob+e.priorLocked(a, b) > e.cfg.EdgeThreshold {
				link(a, b)
			}
		}
	}
	if e.anyCross {
		for ti, row := range e.priorCross {
			for tj, cross := range row {
				if !cross || tj < ti {
					continue
				}
				for _, u := range e.byType[ti] {
					for _, v := range e.byType[tj] {
						if ti == tj && u >= v {
							continue // each unordered pair once
						}
						if _, _, ok := makePairKey(u, v).find(&e.probs.shards); !ok {
							link(u, v) // pairs with a probability were linked above
						}
					}
				}
			}
		}
	}
	e.friends = cowShards[[]trace.UserID]{}
	for u, list := range adj { // ids ascend, so each shard fills in id order
		slices.Sort(list)
		e.friends.shards[u%numShards] = append(e.friends.shards[u%numShards], list)
	}
	e.rebuilt = true
}
