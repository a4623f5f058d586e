package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// friendMapIndex wraps mapIndex with precomputed close-friend lists,
// satisfying FriendIndex at a given threshold.
type friendMapIndex struct {
	mapIndex
	threshold float64
	friends   map[trace.UserID][]trace.UserID
}

func newFriendMapIndex(idx mapIndex, threshold float64) *friendMapIndex {
	f := &friendMapIndex{mapIndex: idx, threshold: threshold, friends: map[trace.UserID][]trace.UserID{}}
	for p, w := range idx {
		if w > threshold {
			f.friends[p[0]] = append(f.friends[p[0]], p[1])
			f.friends[p[1]] = append(f.friends[p[1]], p[0])
		}
	}
	for u := range f.friends {
		fs := f.friends[u]
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	}
	return f
}

func (f *friendMapIndex) CloseFriends(u trace.UserID) []trace.UserID { return f.friends[u] }
func (f *friendMapIndex) FriendThreshold() float64                   { return f.threshold }

// TestFriendFastPathEnablement: the friend-lookup fast path engages only when
// the index is a FriendIndex whose threshold matches the selector's.
func TestFriendFastPathEnablement(t *testing.T) {
	idx := newFriendMapIndex(mapIndex{pair("u", "w"): 0.9}, 0.3)
	s, err := NewSelector(idx, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if s.friends == nil {
		t.Error("matching threshold: fast path not enabled")
	}
	s, err = NewSelector(idx, SelectorConfig{EdgeThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.friends != nil {
		t.Error("mismatched threshold: fast path must stay off (rankings would diverge)")
	}
	s, err = NewSelector(idx.mapIndex, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if s.friends != nil {
		t.Error("plain SocialIndex: fast path must stay off")
	}
}

// TestFriendFastPathParity: with and without the precomputed friend
// lists, Select must return the identical AP for randomized view sets —
// the lookup is an optimization, never a ranking change.
func TestFriendFastPathParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	users := testUsers(24)
	fast, slow := selectorPair(t, randomFriendIndex(rng, users))

	for trial := 0; trial < 200; trial++ {
		nAPs := 2 + rng.Intn(5)
		aps := make([]wlan.APView, nAPs)
		perm := rng.Perm(len(users))
		at := 0
		for i := range aps {
			n := rng.Intn(6)
			var members []trace.UserID
			for k := 0; k < n && at < len(perm); k++ {
				members = append(members, users[perm[at]])
				at++
			}
			sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
			aps[i] = wlan.APView{
				ID:          trace.APID(fmt.Sprintf("ap%d", i)),
				CapacityBps: 1e6,
				LoadBps:     float64(rng.Intn(500)),
			}.WithMembers(members, nil)
		}
		req := wlan.Request{User: users[rng.Intn(len(users))], DemandBps: float64(1 + rng.Intn(100))}
		a, errA := fast.Select(req, aps)
		b, errB := slow.Select(req, aps)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("trial %d: fast = %v (%v), slow = %v (%v)\nreq %+v\naps %+v",
				trial, a, errA, b, errB, req, aps)
		}
	}
}
