package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// ringFriends is a FriendIndex over users u000000…: each user's close
// friends are the benchFriends nearest IDs on a ring, with θ = 0.8.
type ringFriends map[trace.UserID][]trace.UserID

const benchFriends = 10

func newRingFriends(n int) ringFriends {
	id := func(i int) trace.UserID { return trace.UserID(fmt.Sprintf("u%06d", (i+n)%n)) }
	r := make(ringFriends, n)
	for i := 0; i < n; i++ {
		fs := make([]trace.UserID, 0, benchFriends)
		for k := 1; k <= benchFriends/2; k++ {
			fs = append(fs, id(i-k), id(i+k))
		}
		sort.Slice(fs, func(a, b int) bool { return fs[a] < fs[b] })
		r[id(i)] = fs
	}
	return r
}

func (r ringFriends) CloseFriends(u trace.UserID) []trace.UserID { return r[u] }
func (r ringFriends) FriendThreshold() float64                   { return 0.3 }
func (r ringFriends) Index(u, v trace.UserID) float64 {
	for _, f := range r[u] {
		if f == v {
			return 0.8
		}
	}
	return 0
}

var benchPick trace.APID

// BenchmarkSelect times one S³ decision on a domain's views, friend
// lookups included, for the default campus (600 users on 40 APs) and a
// dense cell (100k users on 64 APs), ~10 close friends per requester.
// The snapshot itself is BenchmarkDomainViews' subject and is taken once.
func BenchmarkSelect(b *testing.B) {
	for _, size := range []struct{ users, aps int }{{600, 40}, {100_000, 64}} {
		b.Run(fmt.Sprintf("users=%d/aps=%d", size.users, size.aps), func(b *testing.B) {
			friends := newRingFriends(size.users)
			sel, err := NewSelector(friends, DefaultSelectorConfig())
			if err != nil {
				b.Fatal(err)
			}
			if sel.friends == nil {
				b.Fatal("friend-lookup path not enabled")
			}
			dom := domain.New(domain.Config{Mode: domain.LoadMax})
			aps := make([]trace.APID, size.aps)
			for i := range aps {
				aps[i] = trace.APID(fmt.Sprintf("ap%03d", i))
				if err := dom.AddAP(aps[i], 1e9); err != nil {
					b.Fatal(err)
				}
			}
			users := make([]trace.UserID, 0, size.users)
			for u := range friends {
				users = append(users, u)
			}
			sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
			for i, u := range users {
				// Demands vary so AP loads differ: on equal loads the first AP
				// would win every tie and no other would be looked at.
				p := domain.Placement{User: u, AP: aps[i%len(aps)], DemandBps: float64(500 + (i*7919)%1000)}
				if _, err := dom.Commit([]domain.Placement{p}, nil); err != nil {
					b.Fatal(err)
				}
			}
			var buf domain.ViewBuf
			dom.ViewsInto(users[0], &buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := wlan.Request{User: users[(i*7919)%len(users)], DemandBps: 1000}
				benchPick, err = sel.Select(req, buf.Views())
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
