package incremental

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// testConfig lowers the support threshold to one encounter and disables
// auto-refresh so tests control publication points explicitly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Society.MinEncounters = 1
	cfg.RefreshEvents = 0
	return cfg
}

// meet records one encounter + co-leave cycle for u and v on ap: both
// present for well over MinEncounterSeconds, leaving within the
// co-leave window. Returns the next free timestamp.
func meet(t *testing.T, e *Engine, u, v trace.UserID, ap trace.APID, ts int64) int64 {
	t.Helper()
	e.Connect(u, ap, ts)
	e.Connect(v, ap, ts)
	if err := e.Disconnect(u, ap, ts+3600); err != nil {
		t.Fatal(err)
	}
	if err := e.Disconnect(v, ap, ts+3660); err != nil {
		t.Fatal(err)
	}
	return ts + 8000
}

// meetApart is an encounter without a co-leave: v leaves far outside
// the window, diluting P(L|E) for the pair.
func meetApart(t *testing.T, e *Engine, u, v trace.UserID, ap trace.APID, ts int64) int64 {
	t.Helper()
	e.Connect(u, ap, ts)
	e.Connect(v, ap, ts)
	if err := e.Disconnect(u, ap, ts+3600); err != nil {
		t.Fatal(err)
	}
	if err := e.Disconnect(v, ap, ts+3600+1200); err != nil {
		t.Fatal(err)
	}
	return ts + 8000
}

func TestEngineEmptySnapshot(t *testing.T) {
	e := New(testConfig())
	s := e.Snapshot()
	if s == nil {
		t.Fatal("initial snapshot is nil")
	}
	comps, cover := derived(s)
	if s.Users != 0 || s.Edges != 0 || len(comps) != 0 {
		t.Errorf("empty snapshot = %d users, %d edges, %d comps",
			s.Users, s.Edges, len(comps))
	}
	if got := e.Index("u1", "u2"); got != 0 {
		t.Errorf("Index on empty engine = %v", got)
	}
	if len(cover) != 0 {
		t.Errorf("empty cover = %v", cover)
	}
}

func TestEngineEdgeLifecycle(t *testing.T) {
	e := New(testConfig())
	ts := meet(t, e, "u1", "u2", "ap1", 0)

	// Nothing published yet: reads see the old (empty) snapshot.
	if e.Index("u1", "u2") != 0 {
		t.Error("unrefreshed engine leaked staged state into Index")
	}

	stats := e.Refresh()
	if stats.Seq != 1 || !(stats.EdgesChanged >= 1) {
		t.Errorf("refresh stats = %+v", stats)
	}
	if got := e.Index("u1", "u2"); got != 1.0 {
		t.Errorf("θ(u1,u2) = %v, want 1.0 (1 co-leave / 1 encounter)", got)
	}
	s := e.Snapshot()
	comps, cover := derived(s)
	if s.Users != 2 || s.Edges != 1 || len(comps) != 1 {
		t.Errorf("snapshot = %d users, %d edges, %d comps; want 2/1/1",
			s.Users, s.Edges, len(comps))
	}
	if len(cover) != 1 || len(cover[0]) != 2 {
		t.Fatalf("cover = %v, want one pair clique", cover)
	}

	// Dilute: three more encounters without co-leaving drive P(L|E) to
	// 1/4 = 0.25 ≤ 0.3, so the edge must vanish on the next refresh.
	for i := 0; i < 3; i++ {
		ts = meetApart(t, e, "u1", "u2", "ap1", ts)
	}
	e.Refresh()
	s = e.Snapshot()
	comps, cover = derived(s)
	if s.Edges != 0 || len(comps) != 2 {
		t.Errorf("after dilution: %d edges, %d comps; want 0 edges, 2 singletons",
			s.Edges, len(comps))
	}
	if got := e.Index("u1", "u2"); got != 0.25 {
		t.Errorf("θ after dilution = %v, want 0.25", got)
	}
	if len(cover) != 2 || len(cover[0]) != 1 || len(cover[1]) != 1 {
		t.Errorf("cover after dilution = %v, want two singletons", cover)
	}
}

func TestEngineComponentMergeAndSplit(t *testing.T) {
	e := New(testConfig())
	ts := meet(t, e, "a", "b", "ap1", 0)
	ts = meet(t, e, "c", "d", "ap2", ts)
	e.Refresh()
	if comps, _ := derived(e.Snapshot()); len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}

	// b meets c: the bridge edge merges the two components.
	ts = meet(t, e, "b", "c", "ap3", ts)
	stats := e.Refresh()
	s := e.Snapshot()
	if comps, _ := derived(s); len(comps) != 1 {
		t.Fatalf("components after bridge = %d, want 1", len(comps))
	}
	if comp := componentOf(s, "a"); len(comp) != 4 {
		t.Errorf("merged component = %v, want 4 members", comp)
	}
	// The merge is one new edge, nothing more.
	if stats.EdgesChanged != 1 || stats.Full {
		t.Errorf("merge stats = %+v, want exactly one edge changed", stats)
	}

	// Dilute the bridge below the threshold: the component splits again.
	for i := 0; i < 3; i++ {
		ts = meetApart(t, e, "b", "c", "ap3", ts)
	}
	e.Refresh()
	s = e.Snapshot()
	if comps, _ := derived(s); len(comps) != 2 {
		t.Fatalf("components after split = %d, want 2", len(comps))
	}
	if comp := componentOf(s, "a"); len(comp) != 2 {
		t.Errorf("a's component after split = %v, want {a b}", comp)
	}
	if comp := componentOf(s, "d"); len(comp) != 2 {
		t.Errorf("d's component after split = %v, want {c d}", comp)
	}
}

// derived is what a caller derives from a snapshot's θ-graph: its
// connected components (isolated users are singletons) and its clique
// cover in canonical order.
func derived(s *Snapshot) (components, cover [][]trace.UserID) {
	g := s.Graph()
	cover = socialgraph.ExtractCliqueCover(g)
	socialgraph.SortCover(cover)
	return g.ConnectedComponents(), cover
}

// componentOf is the sorted member list of the snapshot's component
// holding u, nil for an unknown user.
func componentOf(s *Snapshot, u trace.UserID) []trace.UserID {
	comps, _ := derived(s)
	for _, c := range comps {
		if _, ok := slices.BinarySearch(c, u); ok {
			return c
		}
	}
	return nil
}

// TestEngineUntouchedFriendListsShared: a refresh replaces the friend
// lists of the users whose edges changed and shares everyone else's
// with the previous snapshot — which itself never changes.
func TestEngineUntouchedFriendListsShared(t *testing.T) {
	e := New(testConfig())
	ts := meet(t, e, "a", "b", "ap1", 0)
	ts = meet(t, e, "c", "d", "ap2", ts)
	e.Refresh()
	before := e.Snapshot()

	// Same pair again: θ stays 1.0, no edge crosses the threshold.
	ts = meet(t, e, "a", "b", "ap1", ts)
	if stats := e.Refresh(); stats.EdgesChanged != 0 {
		t.Errorf("re-weighting alone changed %d edges, want 0", stats.EdgesChanged)
	}
	meet(t, e, "b", "c", "ap3", ts) // the bridge touches b and c only
	if stats := e.Refresh(); stats.EdgesChanged != 1 {
		t.Errorf("bridge changed %d edges, want 1", stats.EdgesChanged)
	}
	after := e.Snapshot()

	for _, u := range []trace.UserID{"a", "d"} {
		if &before.CloseFriends(u)[0] != &after.CloseFriends(u)[0] {
			t.Errorf("untouched friend list of %s was copied across refreshes", u)
		}
	}
	if got := after.CloseFriends("b"); !reflect.DeepEqual(got, []trace.UserID{"a", "c"}) {
		t.Errorf("b's friends after the bridge = %v, want [a c]", got)
	}
	// The old snapshot is immutable: still two pair components, same θ.
	if got := before.CloseFriends("b"); !reflect.DeepEqual(got, []trace.UserID{"a"}) {
		t.Errorf("held snapshot's friend list changed: b = %v, want [a]", got)
	}
	if comps, _ := derived(before); len(comps) != 2 || before.Edges != 2 || before.Index("b", "c") != 0 {
		t.Errorf("held snapshot drifted: %d comps, %d edges, θ(b,c) = %v",
			len(comps), before.Edges, before.Index("b", "c"))
	}
}

func TestEngineSetTypesPriorCrossing(t *testing.T) {
	cfg := testConfig()
	cfg.Society.Alpha = 0.5 // α·T = 0.5·0.8 = 0.4 > 0.3: prior alone connects
	e := New(cfg)
	ts := int64(0)
	for _, u := range []trace.UserID{"u1", "u2", "u3"} {
		e.Connect(u, "ap1", ts)
		if err := e.Disconnect(u, "ap1", ts+700); err != nil {
			t.Fatal(err)
		}
		ts += 10000 // no overlaps: no encounter statistics at all
	}
	e.Refresh()
	if comps, _ := derived(e.Snapshot()); len(comps) != 3 {
		t.Fatalf("pre-types components = %d, want 3 singletons", len(comps))
	}

	types := map[trace.UserID]int{"u1": 0, "u2": 0, "u3": 0, "u4": 0}
	e.SetTypes(types, [][]float64{{0.8}})
	stats := e.Refresh()
	if !stats.Full {
		t.Error("SetTypes must force a full rebuild")
	}
	s := e.Snapshot()
	comps, cover := derived(s)
	if len(comps) != 1 || s.Edges != 3 {
		t.Fatalf("typed graph = %d comps, %d edges; want 1 comp, 3 edges",
			len(comps), s.Edges)
	}
	if got := s.Index("u1", "u3"); got != 0.4 {
		t.Errorf("prior-only θ = %v, want 0.4", got)
	}
	if len(cover) != 1 || len(cover[0]) != 3 {
		t.Errorf("cover = %v, want one triangle", cover)
	}

	// A newly seen user of a crossing type joins the clique incrementally
	// (no full rebuild).
	e.Connect("u4", "ap2", ts)
	stats = e.Refresh()
	if stats.Full {
		t.Error("new-user refresh must not be a full rebuild")
	}
	s = e.Snapshot()
	if comps, _ = derived(s); len(comps) != 1 || s.Users != 4 || s.Edges != 6 {
		t.Fatalf("after u4: %d comps, %d users, %d edges; want 1/4/6",
			len(comps), s.Users, s.Edges)
	}
	if got := s.Index("u1", "u4"); got != 0.4 {
		t.Errorf("θ(u1,u4) = %v, want 0.4", got)
	}
}

func TestEngineMatchesBatchAfterSetTypes(t *testing.T) {
	e := New(testConfig())
	ts := meet(t, e, "a", "b", "ap1", 0)
	meet(t, e, "b", "c", "ap1", ts)
	e.SetTypes(map[trace.UserID]int{"a": 0, "b": 1, "c": 0},
		[][]float64{{0.9, 0.1}, {0.1, 0.2}})
	e.Refresh()

	s := e.Snapshot()
	m := e.Model()
	users := []trace.UserID{"a", "b", "c"}
	for i, u := range users {
		for _, v := range users[i+1:] {
			if got, want := s.Index(u, v), m.Index(u, v); got != want {
				t.Errorf("θ(%s,%s) = %v, batch = %v", u, v, got, want)
			}
		}
	}
	batch := socialgraph.FromThreshold(users, e.cfg.EdgeThreshold, m.Index)
	if got := s.Graph(); got.NumEdges() != batch.NumEdges() {
		t.Errorf("edges = %d, batch = %d", got.NumEdges(), batch.NumEdges())
	}
}

// TestThetaUnfused: every θ — a Model's, a snapshot's, and the one that
// admits a pair to a friend list on an event or on a SetTypes rebuild —
// adds the rounded α·T, never a fused multiply-add, so all of them agree
// to the bit on every platform. The inputs are ones where fusing moves
// the last bit, and the edge threshold sits at the fused θ: only the
// unfused one crosses it.
func TestThetaUnfused(t *testing.T) {
	const alpha, typeT = 0.3, 0.068
	prob := 1.0 / 3 // one co-leave in three encounters
	want, fused := prob+float64(alpha*typeT), math.FMA(alpha, typeT, prob)
	if !(want > fused) {
		t.Fatalf("inputs do not separate θ: unfused %v, fused %v", want, fused)
	}
	cfg := testConfig()
	cfg.Society.Alpha, cfg.EdgeThreshold = alpha, fused
	e := New(cfg)
	encounter := func(u, v trace.UserID, ap trace.APID, ts int64) int64 {
		ts = meet(t, e, u, v, ap, ts)
		ts = meetApart(t, e, u, v, ap, ts)
		return meetApart(t, e, u, v, ap, ts)
	}
	ts := encounter("c", "d", "ap1", 0) // untyped: θ = 1/3, no edge
	types := map[trace.UserID]int{"a": 0, "b": 0, "c": 0, "d": 0}
	e.SetTypes(types, [][]float64{{typeT}}) // the rebuild admits c–d
	encounter("a", "b", "ap2", ts)          // the events admit a–b
	e.Refresh()

	s, m := e.Snapshot(), e.Model()
	for _, p := range [][2]trace.UserID{{"a", "b"}, {"c", "d"}} {
		u, v := p[0], p[1]
		if got := m.Index(u, v); got != want {
			t.Errorf("Model.Index(%s,%s) = %v, want %v", u, v, got, want)
		}
		if got := s.Index(u, v); got != want {
			t.Errorf("Snapshot.Index(%s,%s) = %v, want %v", u, v, got, want)
		}
		if got := s.CloseFriends(u); !slices.Equal(got, []trace.UserID{v}) {
			t.Errorf("CloseFriends(%s) = %v, want [%s]: θ %v did not cross %v", u, got, v, want, fused)
		}
	}
}

func TestEngineAutoRefresh(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshEvents = 4
	e := New(cfg)
	meet(t, e, "u1", "u2", "ap1", 0) // exactly 4 events
	s := e.Snapshot()
	if s.Seq == 0 {
		t.Fatal("auto-refresh did not publish")
	}
	if s.Edges != 1 {
		t.Errorf("auto-refreshed edges = %d, want 1", s.Edges)
	}
}

func TestEngineObserverErrors(t *testing.T) {
	e := New(testConfig())
	if err := e.Disconnect("ghost", "ap1", 10); err != ErrNotConnected {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
	e.Connect("u1", "ap1", 100)
	if err := e.Disconnect("u1", "ap1", 50); err != ErrTimeWentBack {
		t.Errorf("err = %v, want ErrTimeWentBack", err)
	}
	// The failed events still registered the vertex but no edges.
	e.Refresh()
	if s := e.Snapshot(); s.Users != 1 {
		t.Errorf("users = %d, want 1", s.Users)
	}
}

func TestEngineConcurrentReaders(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshEvents = 8 // interleave refreshes with events
	e := New(cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := e.Snapshot()
				_ = s.Index("u0", "u1")
				_, _ = derived(s)
				_ = e.Index("u1", "u2")
			}
		}()
	}
	users := []trace.UserID{"u0", "u1", "u2", "u3", "u4", "u5"}
	ts := int64(0)
	for i := 0; i < 60; i++ {
		u, v := users[i%len(users)], users[(i+1)%len(users)]
		e.Connect(u, "ap1", ts)
		e.Connect(v, "ap1", ts)
		if err := e.Disconnect(u, "ap1", ts+3600); err != nil {
			t.Fatal(err)
		}
		if err := e.Disconnect(v, "ap1", ts+3650); err != nil {
			t.Fatal(err)
		}
		ts += 8000
	}
	close(done)
	wg.Wait()
	e.Refresh()
	if s := e.Snapshot(); s.Users != len(users) {
		t.Errorf("users = %d, want %d", s.Users, len(users))
	}
}

// TestEngineReadersDuringArrivals: the name → id table is the structure
// readers and the writer share. Readers resolve names through published
// snapshots while every event the writer learns brings a user nobody has
// seen, so the table grows (and is copied) inside every refresh window.
// Run under -race.
func TestEngineReadersDuringArrivals(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshEvents = 64
	e := New(cfg)
	name := func(i int) trace.UserID { return trace.UserID(fmt.Sprintf("arrival-%04d", i)) }
	var arrived atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				n := int(arrived.Load()) + 2 // sometimes a user not yet arrived
				u, v := name(i%n), name((i+1)%n)
				s := e.Snapshot()
				if got, want := slices.Contains(s.CloseFriends(u), v), s.Index(u, v) > cfg.EdgeThreshold; got != want {
					t.Errorf("snapshot %d: %s lists %s as a friend: %v, θ above the threshold: %v", s.Seq, u, v, got, want)
					return
				}
				_ = e.Index(v, u)
				_ = e.CloseFriends(v)
				if i%64 == 0 {
					if m := s.Model(); m.NumPairs() < s.Edges {
						t.Errorf("snapshot %d: %d probabilities for %d edges", s.Seq, m.NumPairs(), s.Edges)
						return
					}
				}
			}
		}()
	}
	ts := int64(0)
	for i := 0; i < 600; i += 2 { // pairs of never-seen users meet and co-leave
		ts = meet(t, e, name(i), name(i+1), trace.APID(fmt.Sprintf("ap%d", i%7)), ts)
		arrived.Store(int64(i + 2))
	}
	close(done)
	wg.Wait()
	e.Refresh()
	if s := e.Snapshot(); s.Users != 600 || s.Edges != 300 || s.Seq < 600*2/64 {
		t.Errorf("after the stream: %d users, %d edges, snapshot %d; want 600, 300 and ≥ %d refreshes", s.Users, s.Edges, s.Seq, 600*2/64)
	}
}

// TestCloneFollowsTouched: copy-on-write granularity. On an engine
// holding ten thousand supported pairs, the first event after a refresh
// to move one pair's probability — no edge crosses, nobody is new —
// clones that pair's shard and nothing else: tens of 16-byte entries,
// not a 256th of a string-keyed table.
func TestCloneFollowsTouched(t *testing.T) {
	e := New(benchConfig())
	ts, err := replayClusteredPopulation(5000, e.Connect, e.Disconnect)
	if err != nil {
		t.Fatal(err)
	}
	if ts, err = churnOne(0, ts, e.Connect, e.Disconnect); err != nil { // warms the scratch slices
		t.Fatal(err)
	}
	e.Refresh()
	before := e.Snapshot()
	if pairs := before.Model().NumPairs(); pairs != 10000 {
		t.Fatalf("test set-up: %d supported pairs, want 10000", pairs)
	}
	u, v := benchUser(0), benchUser(1)
	e.Connect(u, "churn", ts)
	e.Connect(v, "churn", ts)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = e.Disconnect(u, "churn", ts+3600) // an encounter with v: P(L|E) 1 → 2/3
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("one moved probability allocated %d bytes", got)
	if got > 2<<10 {
		t.Errorf("one moved probability allocated %d bytes, want ≤ 2048", got)
	}
	if stats := e.Refresh(); stats.EdgesChanged != 0 {
		t.Fatalf("test set-up: %d edges changed, want a probability move alone", stats.EdgesChanged)
	}
	if was, is := before.Index(u, v), e.Index(u, v); was != 1 || is >= was || is <= 0.3 {
		t.Errorf("θ(%s,%s) went %v → %v; want 1 → a lower value still above the threshold", u, v, was, is)
	}
}
