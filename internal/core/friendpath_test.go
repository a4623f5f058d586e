package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// scanFriends serves any SocialIndex as a FriendIndex the slow way: a
// row is Index against every user of a fixed population, evaluated on
// each call. It is how the tests hand the selector a hand-written index,
// and it lists friends without θ, as the live engine does.
type scanFriends struct {
	SocialIndex
	users     []trace.UserID // sorted
	threshold float64
}

func (s scanFriends) FriendThreshold() float64 { return s.threshold }

func (s scanFriends) CloseFriends(u trace.UserID) []trace.UserID {
	var row []trace.UserID
	for _, v := range s.users {
		if v != u && s.Index(u, v) > s.threshold {
			row = append(row, v)
		}
	}
	return row
}

// scanTabulator is the FriendTabulator counterpart: rows with θ at
// whatever threshold is asked for, as a trained model lays them out.
type scanTabulator struct {
	SocialIndex
	users []trace.UserID // sorted
}

func (s scanTabulator) CloseFriendRows(threshold float64) (users []trace.UserID, start []int, friends []trace.UserID, theta []float64) {
	start = []int{0}
	for _, u := range s.users {
		for _, v := range (scanFriends{s.SocialIndex, s.users, threshold}).CloseFriends(u) {
			friends, theta = append(friends, v), append(theta, s.Index(u, v))
		}
		start = append(start, len(friends))
	}
	return s.users, start, friends, theta
}

func (s scanTabulator) Rank(u trace.UserID) (int, bool) { return slices.BinarySearch(s.users, u) }

// users lists the users the map names, sorted.
func (m mapIndex) users() []trace.UserID {
	var users []trace.UserID
	for p := range m {
		users = append(users, p[0], p[1])
	}
	slices.Sort(users)
	return slices.Compact(users)
}

// A mapIndex is itself a FriendIndex at the paper's 0.3, by scan.
func (m mapIndex) FriendThreshold() float64 { return 0.3 }
func (m mapIndex) CloseFriends(u trace.UserID) []trace.UserID {
	return scanFriends{indexOnly{m}, m.users(), 0.3}.CloseFriends(u)
}

// indexOnly hides everything but Index.
type indexOnly struct{ idx SocialIndex }

func (i indexOnly) Index(u, v trace.UserID) float64 { return i.idx.Index(u, v) }

// TestFriendFastPathEnablement: a selector needs close-friend rows at its
// own threshold — listed by the index at exactly that threshold, or
// tabulated for it; an index offering neither is refused, there being no
// resident scan to fall back on.
func TestFriendFastPathEnablement(t *testing.T) {
	idx := mapIndex{pair("u", "w"): 0.9, pair("u", "x"): 0.4}
	s, err := NewSelector(idx, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, listed := s.friends.(mapIndex); !listed {
		t.Errorf("matching threshold: selector reads %T, want the index's own lists", s.friends)
	}
	if _, err = NewSelector(idx, SelectorConfig{EdgeThreshold: 0.5}); err == nil {
		t.Error("lists at 0.3, selector at 0.5: must be refused (rankings would diverge)")
	}
	if _, err = NewSelector(indexOnly{idx}, SelectorConfig{EdgeThreshold: 0.3}); err == nil {
		t.Error("plain SocialIndex: must be refused")
	}
	s, err = NewSelector(scanTabulator{idx, idx.users()}, SelectorConfig{EdgeThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.friends.CloseFriends("u"); !slices.Equal(got, []trace.UserID{"w"}) || s.friends.FriendThreshold() != 0.5 {
		t.Errorf("tabulated at 0.5: u's row = %v at %v, want [w] at 0.5", got, s.friends.FriendThreshold())
	}
	if got := s.thetas("u", s.friends.CloseFriends("u")); !slices.Equal(got, []float64{0.9}) {
		t.Errorf("tabulated θ of u's row = %v, want [0.9]", got)
	}
	if got := s.friends.CloseFriends("stranger"); got != nil {
		t.Errorf("unknown user's row = %v, want none", got)
	}
}

// selectorPair builds the S³ selector twice over one index: reading the
// index's own friend lists (θ asked per friend, as with the live engine)
// and reading rows tabulated with θ (as with a trained model).
func selectorPair(t testing.TB, idx mapIndex) (listed, tabulated *Selector) {
	t.Helper()
	listed, err := NewSelector(idx, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tabulated, err = NewSelector(scanTabulator{idx, idx.users()}, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tabulated.friends.(*friendRows); !ok {
		t.Fatalf("tabulated selector reads %T", tabulated.friends)
	}
	return listed, tabulated
}

// TestFriendFastPathParity: over listed friends and over tabulated rows,
// Select returns the AP the reference ranking — Index against every
// resident — picks, for randomized view sets.
func TestFriendFastPathParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	users := testUsers(24)
	idx := randomFriendIndex(rng, users)
	listed, tabulated := selectorPair(t, idx)

	for trial := 0; trial < 200; trial++ {
		nAPs := 2 + rng.Intn(5)
		aps := make([]wlan.APView, nAPs)
		on := make([][]member, nAPs)
		perm := rng.Perm(len(users))
		at := 0
		for i := range aps {
			n := rng.Intn(6)
			for k := 0; k < n && at < len(perm); k++ {
				on[i] = append(on[i], member{users[perm[at]], float64(1 + rng.Intn(100))})
				at++
			}
			aps[i] = wlan.APView{
				ID:          trace.APID(fmt.Sprintf("ap%d", i)),
				CapacityBps: 1e6,
				LoadBps:     float64(rng.Intn(500)),
			}
		}
		aps = domainViews(t, aps, on...)
		req := wlan.Request{User: users[rng.Intn(len(users))], DemandBps: float64(1 + rng.Intn(100))}
		want := referenceSelect(idx, listed.cfg, req, aps)
		a, errA := listed.Select(req, aps)
		b, errB := tabulated.Select(req, aps)
		if errA != nil || errB != nil || a != want || b != want {
			t.Fatalf("trial %d: listed = %v (%v), tabulated = %v (%v), the reference ranking picks %v\nreq %+v\naps %+v",
				trial, a, errA, b, errB, want, req, aps)
		}
	}
}
