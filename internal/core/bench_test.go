package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
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

var benchPlaced map[trace.UserID]trace.APID

// trainedBatchFixture is Algorithm 1's input over a trained
// society.Model — the rows NewSelector tabulates from it — on a 150-user
// campus: the selector, the users in id order, and the views of twelve
// APs that hold all of them.
func trainedBatchFixture(tb testing.TB) (*Selector, []trace.UserID, []wlan.APView) {
	campus := synth.DefaultConfig()
	campus.Users, campus.Buildings, campus.Days = 150, 3, 20
	tr, _, err := synth.Generate(campus)
	if err != nil {
		tb.Fatal(err)
	}
	model, err := society.Train(tr, apps.BuildProfiles(tr.Flows, campus.Epoch, apps.NewClassifier()), society.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	sel, err := NewSelector(model, DefaultSelectorConfig())
	if err != nil {
		tb.Fatal(err)
	}
	users := make([]trace.UserID, 0, len(model.Types))
	for u := range model.Types {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	dom := domain.New(domain.Config{})
	for a := 0; a < 12; a++ {
		if err := dom.AddAP(trace.APID(fmt.Sprintf("ap%02d", a)), 1e9); err != nil {
			tb.Fatal(err)
		}
	}
	for i, u := range users {
		p := domain.Placement{User: u, AP: trace.APID(fmt.Sprintf("ap%02d", i%12)), DemandBps: float64(500 + (i*7919)%1000)}
		if _, err := dom.Commit([]domain.Placement{p}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	var buf domain.ViewBuf
	dom.ViewsInto(users[0], &buf)
	return sel, users, buf.Views()
}

// eightCoArrivals fills reqs with the i-th batch of the fixture: eight
// users cut from consecutive ids, so that some are close.
func eightCoArrivals(reqs []wlan.Request, users []trace.UserID, i int) {
	for k := range reqs {
		reqs[k] = wlan.Request{User: users[(i*8+k)%len(users)], DemandBps: float64(800 + 50*k)}
	}
}

// BenchmarkSelectBatch times Algorithm 1 over a trained society.Model:
// eight co-arrivals placed on twelve APs that hold everyone else.
func BenchmarkSelectBatch(b *testing.B) {
	sel, users, views := trainedBatchFixture(b)
	reqs := make([]wlan.Request, 8)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eightCoArrivals(reqs, users, i)
		if benchPlaced, err = sel.SelectBatch(reqs, views); err != nil {
			b.Fatal(err)
		}
	}
}
