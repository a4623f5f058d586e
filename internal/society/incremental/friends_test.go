package incremental

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestSnapshotCloseFriends: CloseFriends must return exactly the
// snapshot graph's neighbors above the edge threshold, sorted, and be
// stable across repeated calls.
func TestSnapshotCloseFriends(t *testing.T) {
	e := New(testConfig())
	ts := int64(0)
	// a—b and a—c co-leave repeatedly (strong edges); a meets d without
	// co-leaving (encounter support but a weak pair probability).
	for i := 0; i < 4; i++ {
		ts = meet(t, e, "a", "b", "ap1", ts)
		ts = meet(t, e, "a", "c", "ap2", ts)
		ts = meetApart(t, e, "a", "d", "ap3", ts)
	}
	e.Refresh()
	snap := e.Snapshot()

	for _, u := range []trace.UserID{"a", "b", "c", "d"} {
		var want []trace.UserID
		forEachEdge(snap.Graph(), func(x, y trace.UserID, w float64) {
			if w <= e.FriendThreshold() {
				return
			}
			if x == u {
				want = append(want, y)
			}
			if y == u {
				want = append(want, x)
			}
		})
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := snap.CloseFriends(u)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("CloseFriends(%s) = %v, want %v", u, got, want)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("CloseFriends(%s) not sorted: %v", u, got)
		}
		again := snap.CloseFriends(u)
		if !reflect.DeepEqual(got, again) {
			t.Errorf("CloseFriends(%s) unstable: %v then %v", u, got, again)
		}
	}
	if fs := snap.CloseFriends("stranger"); fs != nil {
		t.Errorf("CloseFriends(unknown) = %v, want nil", fs)
	}
	// The engine delegates to its current snapshot and exposes the
	// config threshold — the contract core.FriendIndex relies on.
	if !reflect.DeepEqual(e.CloseFriends("a"), snap.CloseFriends("a")) {
		t.Errorf("engine CloseFriends diverged from snapshot")
	}
	if e.FriendThreshold() != e.cfg.EdgeThreshold {
		t.Errorf("FriendThreshold = %v, want %v", e.FriendThreshold(), e.cfg.EdgeThreshold)
	}
}

// TestSnapshotImmutableAcrossRefreshes holds one snapshot while a dozen
// later refreshes rewire its users, with concurrent readers on it the
// whole time (run under -race). Its friend lists must not move, and the
// graph and cover it derives on demand — first asked for only after
// those refreshes — must be the batch answer for the moment it was
// published, not for now.
func TestSnapshotImmutableAcrossRefreshes(t *testing.T) {
	s := newEqStream(t, 17, testStateConfig(), 20, 3)
	for i := 0; i < 300; i++ {
		s.step()
	}
	s.eng.Refresh()
	held := s.eng.Snapshot()

	batch := s.batch()
	users := append([]trace.UserID(nil), s.users...)
	var seen []trace.UserID
	for _, u := range users {
		if s.seen[u] {
			seen = append(seen, u)
		}
	}
	wantGraph := socialgraph.FromThreshold(seen, s.eng.cfg.EdgeThreshold, batch.Index)
	wantCover := socialgraph.ExtractCliqueCover(wantGraph)
	socialgraph.SortCover(wantCover)
	wantFriends := make(map[trace.UserID][]trace.UserID)
	for _, u := range users {
		wantFriends[u] = wantGraph.Neighbors(u)
	}
	checkFriends := func() {
		for _, u := range users {
			if got, want := held.CloseFriends(u), wantFriends[u]; !slices.Equal(got, want) {
				t.Errorf("held CloseFriends(%s) = %v, want %v", u, got, want)
				return
			}
		}
	}

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
				checkFriends()
				cur := s.eng.Snapshot()
				_ = cur.CloseFriends(users[0])
				_, _ = derived(cur)
			}
		}()
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 60; i++ {
			s.step()
		}
		s.eng.Refresh()
	}
	close(done)
	wg.Wait()

	moved := 0
	now := s.eng.Snapshot()
	for _, u := range users {
		if !slices.Equal(now.CloseFriends(u), held.CloseFriends(u)) {
			moved++
		}
	}
	if now.Seq < held.Seq+12 || moved == 0 {
		t.Fatalf("test vacuous: %d refreshes later, %d friend lists moved", now.Seq-held.Seq, moved)
	}
	checkFriends()
	if !graphsEqual(held.Graph(), wantGraph) {
		t.Error("held snapshot's graph is not the graph it was published with")
	}
	if _, cover := derived(held); !reflect.DeepEqual(cover, wantCover) {
		t.Errorf("held snapshot's cover drifted\ngot  %v\nwant %v", cover, wantCover)
	}
}
