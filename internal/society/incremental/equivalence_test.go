package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// The property behind the whole engine: replaying one event stream
// through the incremental engine and through the batch path (a Model
// derived from the raw tallies of an independently fed tally core →
// FromThreshold → ExtractCliqueCover) must give identical pair
// probabilities, identical θ-graphs and identical clique
// covers at every refresh point — no matter where the refreshes fall,
// how sessions stack, or when a type assignment lands mid-stream. The
// friend lists and edge count are what a refresh maintains; the graph
// and cover are derived from them on demand.

// eqStream drives one randomized equivalence run.
type eqStream struct {
	t   *testing.T
	rng *rand.Rand
	eng *Engine
	// ref is an independently fed tally core; the reference side derives
	// everything from its raw counts and the last assignment, from scratch.
	ref       *tallies
	refTypes  map[trace.UserID]int
	refMatrix [][]float64

	users []trace.UserID
	aps   []trace.APID
	seen  map[trace.UserID]bool
	// open session stack: one entry per open (user, ap) session, so
	// disconnects are always valid and stacking arises naturally.
	open []openSess
	ts   int64
}

type openSess struct {
	u  trace.UserID
	ap trace.APID
}

func newEqStream(t *testing.T, seed int64, cfg Config, nUsers, nAPs int) *eqStream {
	s := &eqStream{
		t:    t,
		rng:  rand.New(rand.NewSource(seed)),
		eng:  New(cfg),
		ref:  newTallies(cfg.Society),
		seen: make(map[trace.UserID]bool),
	}
	for i := 0; i < nUsers; i++ {
		s.users = append(s.users, trace.UserID(fmt.Sprintf("u%02d", i)))
	}
	for i := 0; i < nAPs; i++ {
		s.aps = append(s.aps, trace.APID(fmt.Sprintf("ap%d", i)))
	}
	return s
}

// step advances time and applies one random event to both sides.
func (s *eqStream) step() {
	s.ts += int64(s.rng.Intn(400))
	// Bias toward connects while few sessions are open, disconnects when
	// many are, so the stream churns instead of saturating.
	if len(s.open) == 0 || (s.rng.Intn(3) != 0 && len(s.open) < 3*len(s.users)) {
		u := s.users[s.rng.Intn(len(s.users))]
		ap := s.aps[s.rng.Intn(len(s.aps))]
		s.eng.Connect(u, ap, s.ts)
		s.ref.connect(u, ap, s.ts)
		s.seen[u] = true
		s.open = append(s.open, openSess{u, ap})
		return
	}
	i := s.rng.Intn(len(s.open))
	sess := s.open[i]
	s.open[i] = s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	if err := s.eng.Disconnect(sess.u, sess.ap, s.ts); err != nil {
		s.t.Fatalf("engine disconnect: %v", err)
	}
	if _, err := s.ref.disconnect(sess.u, sess.ap, s.ts); err != nil {
		s.t.Fatalf("reference disconnect: %v", err)
	}
}

// setTypes lands the same assignment on both sides.
func (s *eqStream) setTypes(types map[trace.UserID]int, matrix [][]float64) {
	s.eng.SetTypes(types, matrix)
	s.refTypes, s.refMatrix = types, matrix
}

// asMaps spreads a model's pairs into maps (society's test helper of the
// same name): supported probabilities, positive encounter and co-leave
// counts.
func asMaps(m *society.Model) (prob map[society.Pair]float64, encounters, coLeaves map[society.Pair]int) {
	prob, encounters, coLeaves = map[society.Pair]float64{}, map[society.Pair]int{}, map[society.Pair]int{}
	m.EachPair(func(p society.PairStat) {
		if p.Supported {
			prob[p.Pair] = p.Prob
		}
		if p.Encounters > 0 {
			encounters[p.Pair] = p.Encounters
		}
		if p.CoLeaves > 0 {
			coLeaves[p.Pair] = p.CoLeaves
		}
	})
	return prob, encounters, coLeaves
}

// batch is the reference model: raw reference tallies, nothing patched.
func (s *eqStream) batch() *society.Model { return s.ref.model(s.refTypes, s.refMatrix) }

// check refreshes the engine and compares every layer against the
// batch path over the reference tallies.
func (s *eqStream) check(tag string) {
	s.t.Helper()
	s.eng.Refresh()
	snap := s.eng.Snapshot()
	batch := s.batch()

	// Layer 1: pair probabilities (support-filtered P(L|E)); a snapshot
	// carries no counts.
	got, gotEnc, gotCol := asMaps(snap.Model())
	want, wantEnc, wantCol := asMaps(batch)
	if p, e, c := asMaps(s.eng.Model()); !reflect.DeepEqual(p, want) || !reflect.DeepEqual(e, wantEnc) || !reflect.DeepEqual(c, wantCol) {
		s.t.Fatalf("%s: Engine.Model() has %d/%d/%d probabilities/encounters/co-leaves, the reference tallies %d/%d/%d (or other values)",
			tag, len(p), len(e), len(c), len(want), len(wantEnc), len(wantCol))
	}
	if len(got) != len(want) || len(want) != batch.NumPairs() || len(gotEnc)+len(gotCol) != 0 {
		s.t.Fatalf("%s: %d pair probs (%d, %d counts), batch has %d (NumPairs %d)",
			tag, len(got), len(gotEnc), len(gotCol), len(want), batch.NumPairs())
	}
	for p, v := range want {
		if gv, ok := got[p]; !ok || gv != v {
			s.t.Fatalf("%s: prob[%v] = %v (present %v), batch %v", tag, p, gv, ok, v)
		}
	}

	// Layer 2: the θ-graph — vertex set, edge set and weights.
	users := make([]trace.UserID, 0, len(s.seen))
	for u := range s.seen {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	bg := socialgraph.FromThreshold(users, s.eng.cfg.EdgeThreshold, batch.Index)
	ig := snap.Graph()
	if ig.NumVertices() != bg.NumVertices() || ig.NumEdges() != bg.NumEdges() {
		s.t.Fatalf("%s: graph %d/%d vertices, %d/%d edges",
			tag, ig.NumVertices(), bg.NumVertices(), ig.NumEdges(), bg.NumEdges())
	}
	forEachEdge(bg, func(u, v trace.UserID, w float64) {
		if gw, ok := ig.Weight(u, v); !ok || gw != w {
			s.t.Fatalf("%s: edge %s—%s = %v (present %v), batch %v", tag, u, v, gw, ok, w)
		}
	})
	// What a decision reads: every user's close-friend list is the batch
	// graph's sorted neighbor list, and the maintained edge count is right.
	if snap.Users != len(users) || snap.Edges != bg.NumEdges() {
		s.t.Fatalf("%s: snapshot counts %d users, %d edges; batch %d, %d",
			tag, snap.Users, snap.Edges, len(users), bg.NumEdges())
	}
	for _, u := range users {
		if got, want := snap.CloseFriends(u), bg.Neighbors(u); !slices.Equal(got, want) {
			s.t.Fatalf("%s: CloseFriends(%s) = %v, batch neighbors %v", tag, u, got, want)
		}
	}
	// And every snapshot θ must match the batch index pointwise.
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			if gi, bi := snap.Index(users[i], users[j]), batch.Index(users[i], users[j]); gi != bi {
				s.t.Fatalf("%s: θ(%s,%s) = %v, batch %v", tag, users[i], users[j], gi, bi)
			}
		}
	}

	// Layer 3: the clique cover, canonicalized.
	bc := socialgraph.ExtractCliqueCover(bg)
	socialgraph.SortCover(bc)
	_, ic := derived(snap)
	if len(ic) != len(bc) {
		s.t.Fatalf("%s: cover has %d cliques, batch %d\nincremental: %v\nbatch: %v",
			tag, len(ic), len(bc), ic, bc)
	}
	for k := range bc {
		if len(ic[k]) != len(bc[k]) {
			s.t.Fatalf("%s: clique %d: %v vs batch %v", tag, k, ic[k], bc[k])
		}
		for m := range bc[k] {
			if ic[k][m] != bc[k][m] {
				s.t.Fatalf("%s: clique %d: %v vs batch %v", tag, k, ic[k], bc[k])
			}
		}
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RefreshEvents = 0 // refresh points chosen by the test
			// Short windows so the random stream actually produces
			// encounters, co-leaves and threshold crossings.
			cfg.Society.MinEncounterSeconds = 200
			cfg.Society.CoLeaveWindowSeconds = 150
			cfg.Society.MinEncounters = 2
			s := newEqStream(t, seed, cfg, 30, 4)
			for round := 0; round < 12; round++ {
				for i := 0; i < 25+s.rng.Intn(50); i++ {
					s.step()
				}
				s.check(fmt.Sprintf("round %d", round))
			}
		})
	}
}

func TestIncrementalMatchesBatchWithTypes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEvents = 0
	cfg.Society.MinEncounterSeconds = 200
	cfg.Society.CoLeaveWindowSeconds = 150
	cfg.Society.MinEncounters = 2
	s := newEqStream(t, 11, cfg, 24, 3)

	for i := 0; i < 150; i++ {
		s.step()
	}
	s.check("pre-types")

	// A mid-stream type assignment whose prior cannot cross the threshold
	// alone (α·T ≤ 0.3): it shifts every θ but adds no prior-only edges.
	types := make(map[trace.UserID]int)
	for i, u := range s.users {
		types[u] = i % 3
	}
	s.setTypes(types, [][]float64{{0.9, 0.1, 0}, {0.1, 0.5, 0.2}, {0, 0.2, 0.7}})
	s.check("post-types")

	for i := 0; i < 150; i++ {
		s.step()
	}
	s.check("post-types churn")
}

func TestIncrementalMatchesBatchWithCrossingPrior(t *testing.T) {
	// α = 0.6 makes α·T cross 0.3 for the high-affinity type pair, so
	// prior-only edges appear between users who never met — including
	// users first seen after the assignment landed.
	cfg := DefaultConfig()
	cfg.RefreshEvents = 0
	cfg.Society.Alpha = 0.6
	cfg.Society.MinEncounterSeconds = 200
	cfg.Society.CoLeaveWindowSeconds = 150
	cfg.Society.MinEncounters = 2
	s := newEqStream(t, 23, cfg, 20, 3)

	// Assign types before any user has been seen: every user's first
	// connect exercises the incremental prior-edge staging path.
	types := make(map[trace.UserID]int)
	for i, u := range s.users {
		types[u] = i % 2
	}
	// T[0][0] = 0.8 → α·T = 0.48 > 0.3: type-0 users form prior cliques.
	s.setTypes(types, [][]float64{{0.8, 0.1}, {0.1, 0.2}})

	for round := 0; round < 6; round++ {
		for i := 0; i < 60; i++ {
			s.step()
		}
		s.check(fmt.Sprintf("crossing round %d", round))
	}
}

func TestIncrementalMatchesBatchRandomRefreshPoints(t *testing.T) {
	// Auto-refresh at an awkward interval, plus manual refreshes at
	// random points: published state must be exact wherever it lands.
	cfg := DefaultConfig()
	cfg.RefreshEvents = 7
	cfg.Society.MinEncounterSeconds = 200
	cfg.Society.CoLeaveWindowSeconds = 150
	cfg.Society.MinEncounters = 1
	s := newEqStream(t, 99, cfg, 16, 2)
	for round := 0; round < 8; round++ {
		for i := 0; i < 10+s.rng.Intn(40); i++ {
			s.step()
		}
		s.check(fmt.Sprintf("random round %d", round))
	}
}

// TestIncrementalMatchesBatchEverything mixes all of it over several
// seeds: auto-refresh at a seed-dependent interval, manual refreshes at
// random points, and two mid-stream type assignments — one that only
// shifts θ, one whose prior alone crosses the threshold — so edges
// appear and vanish through threshold crossings, merges, splits, full
// rebuilds and first-seen users of a crossing type.
func TestIncrementalMatchesBatchEverything(t *testing.T) {
	for _, seed := range []int64{5, 6, 8, 13, 21, 34} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RefreshEvents = 3 + int(seed)
			cfg.Society.Alpha = 0.6
			cfg.Society.MinEncounterSeconds = 200
			cfg.Society.CoLeaveWindowSeconds = 150
			cfg.Society.MinEncounters = 1 + int(seed%2)
			s := newEqStream(t, seed, cfg, 28, 3)
			types := make(map[trace.UserID]int)
			for i, u := range s.users {
				types[u] = i % 3
			}
			for round := 0; round < 10; round++ {
				switch round {
				case 3: // α·T ≤ 0.24: moves every θ, adds no prior-only edge
					s.setTypes(types, [][]float64{{0.4, 0.1, 0}, {0.1, 0.3, 0.2}, {0, 0.2, 0.4}})
				case 6: // α·T[0][0] = 0.48: type-0 users become a prior clique
					s.setTypes(types, [][]float64{{0.8, 0.1, 0}, {0.1, 0.3, 0.2}, {0, 0.2, 0.4}})
				}
				for i := 0; i < 10+s.rng.Intn(60); i++ {
					s.step()
				}
				s.check(fmt.Sprintf("round %d", round))
			}
		})
	}
}
