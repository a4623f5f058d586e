package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func testUsers(n int) []trace.UserID {
	users := make([]trace.UserID, n)
	for i := range users {
		users[i] = trace.UserID(fmt.Sprintf("u%03d", i))
	}
	return users
}

// member is one user committed to an AP by domainViews.
type member struct {
	user   trace.UserID
	demand float64
}

// domainViews builds views the way both drivers do: aps' IDs and
// capacities are registered in a LoadReported domain, each LoadBps is
// set as the AP's report, on[i] is committed to aps[i], and the
// ViewsInto snapshot comes back in aps' order.
func domainViews(tb testing.TB, aps []wlan.APView, on ...[]member) []wlan.APView {
	tb.Helper()
	dom := domain.New(domain.Config{Mode: domain.LoadReported})
	for i, ap := range aps {
		if err := dom.AddAP(ap.ID, ap.CapacityBps); err != nil {
			tb.Fatal(err)
		}
		dom.SetReported(ap.ID, ap.LoadBps)
		if i < len(on) {
			for _, m := range on[i] {
				if _, err := dom.Commit([]domain.Placement{{User: m.user, AP: ap.ID, DemandBps: m.demand}}, nil); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	var buf domain.ViewBuf
	dom.ViewsInto("", &buf)
	out := make([]wlan.APView, len(aps))
	for i, ap := range aps {
		at := slices.IndexFunc(buf.Views(), func(v wlan.APView) bool { return v.ID == ap.ID })
		out[i] = buf.Views()[at]
	}
	return out
}

// randomFriendIndex draws θ for about a third of the pairs, some above
// and some below the 0.3 cut.
func randomFriendIndex(rng *rand.Rand, users []trace.UserID) mapIndex {
	return randomIndex(rng, users, 0.3)
}

// referenceSelect is Select's documented ranking done the slow way, as
// the oracle: every feasible AP within the balance guard gets its friend
// buckets from Index over its full membership, the minimum by (buckets,
// load, users, ID) wins; failing that the least-loaded feasible AP, then
// the least-loaded AP.
func referenceSelect(idx mapIndex, cfg SelectorConfig, req wlan.Request, aps []wlan.APView) trace.APID {
	minLoad, total := aps[0].LoadBps, 0.0
	for _, ap := range aps {
		total += ap.LoadBps
		minLoad = math.Min(minLoad, ap.LoadBps)
	}
	guard := minLoad + cfg.BalanceGuard*(total/float64(len(aps))+req.DemandBps)
	type ranked struct {
		buckets  int
		load     float64
		users    int
		id       trace.APID
		feasible bool
		guarded  bool
	}
	var all []ranked
	for _, ap := range aps {
		users, demands := ap.Members()
		var friendLoad float64
		for i, w := range users {
			if idx.Index(req.User, w) > cfg.EdgeThreshold {
				friendLoad += demands[i]
			}
		}
		all = append(all, ranked{int(math.Floor(friendLoad / req.DemandBps)), ap.LoadBps, ap.NumUsers, ap.ID,
			ap.HasCapacityFor(req.DemandBps), ap.LoadBps <= guard})
	}
	best := func(keep func(ranked) bool, useBuckets bool) (trace.APID, bool) {
		var picked []ranked
		for _, r := range all {
			if keep(r) {
				if !useBuckets {
					r.buckets = 0
				}
				picked = append(picked, r)
			}
		}
		sort.Slice(picked, func(i, j int) bool {
			a, b := picked[i], picked[j]
			switch {
			case a.buckets != b.buckets:
				return a.buckets < b.buckets
			case a.load != b.load:
				return a.load < b.load
			case a.users != b.users:
				return a.users < b.users
			}
			return a.id < b.id
		})
		if len(picked) == 0 {
			return "", false
		}
		return picked[0].id, true
	}
	if id, ok := best(func(r ranked) bool { return r.feasible && r.guarded }, true); ok {
		return id
	}
	if id, ok := best(func(r ranked) bool { return r.feasible }, false); ok {
		return id
	}
	id, _ := best(func(ranked) bool { return true }, false)
	return id
}

// TestLazyViewsRankLikeMaterialised: over generated domains and friend
// graphs, Select on a domain's views (membership looked up on demand)
// picks the AP the reference ranking picks over the materialised
// membership, which must equal the membership the test tracked itself —
// over listed friends and over tabulated rows, with users holding
// stacked sessions on one AP.
func TestLazyViewsRankLikeMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users := testUsers(30)
	for trial := 0; trial < 200; trial++ {
		idx := randomFriendIndex(rng, users)
		listed, tabulated := selectorPair(t, idx)
		demand := func() float64 { return float64(1 + rng.Intn(100)) }

		dom := domain.New(domain.Config{})
		aps := make([]trace.APID, 2+rng.Intn(6))
		on := map[trace.APID]map[trace.UserID]float64{}
		for i := range aps {
			aps[i] = trace.APID(fmt.Sprintf("ap%d", i))
			on[aps[i]] = map[trace.UserID]float64{}
			// Some APs are tight enough to be infeasible or guarded out.
			if err := dom.AddAP(aps[i], float64(200+rng.Intn(2000))); err != nil {
				t.Fatal(err)
			}
		}
		req := wlan.Request{User: users[rng.Intn(len(users))], DemandBps: demand()}
		for _, u := range users {
			if u == req.User || rng.Float64() < 0.3 {
				continue
			}
			ap := aps[rng.Intn(len(aps))]
			sessions := 1
			if rng.Float64() < 0.25 {
				sessions = 2 // stacked on the same AP: demands add up
			}
			for s := 0; s < sessions; s++ {
				d := demand()
				if _, err := dom.Commit([]domain.Placement{{User: u, AP: ap, DemandBps: d}}, nil); err != nil {
					t.Fatal(err)
				}
				on[ap][u] += d
			}
		}

		var buf domain.ViewBuf
		dom.ViewsInto(req.User, &buf)
		views := buf.Views()
		for _, v := range views {
			members, demands := v.Members()
			if len(members) != len(on[v.ID]) || v.NumUsers != len(members) {
				t.Fatalf("trial %d: %s materialises %d users and counts %d, test tracked %d",
					trial, v.ID, len(members), v.NumUsers, len(on[v.ID]))
			}
			for i, u := range members {
				if d, ok := on[v.ID][u]; !ok || d != demands[i] {
					t.Fatalf("trial %d: %s materialises %s at %v, test tracked %v (%v)", trial, v.ID, u, demands[i], d, ok)
				}
			}
		}

		want := referenceSelect(idx, listed.cfg, req, views)
		for name, sel := range map[string]*Selector{"listed": listed, "tabulated": tabulated} {
			if got, err := sel.Select(req, views); err != nil || got != want {
				t.Fatalf("trial %d: %s picked %q (%v), the reference ranking picks %q\nreq %+v\nmembership %v",
					trial, name, got, err, want, req, on)
			}
		}
	}
}

// TestFastPathsNeverMaterialise: the policies that rank on aggregates,
// and S³ — single arrivals and batches, over listed friends and over
// tabulated rows — decide without one membership copy; a copy through
// Members is what domain.views.materialized counts.
func TestFastPathsNeverMaterialise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	users := testUsers(30)
	listed, tabulated := selectorPair(t, randomFriendIndex(rng, users))
	dom := domain.New(domain.Config{})
	for i := 0; i < 6; i++ {
		if err := dom.AddAP(trace.APID(fmt.Sprintf("ap%d", i)), 1e6); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range users[1:] {
		p := domain.Placement{User: u, AP: trace.APID(fmt.Sprintf("ap%d", i%6)), DemandBps: float64(10 + i)}
		if _, err := dom.Commit([]domain.Placement{p}, nil); err != nil {
			t.Fatal(err)
		}
	}
	materialized := obs.GetCounter("domain.views.materialized")
	before := materialized.Value()
	req := wlan.Request{User: users[0], DemandBps: 25}
	var buf domain.ViewBuf
	for _, sel := range []wlan.Selector{baseline.LLF{}, baseline.LeastUsers{}, baseline.StrongestRSSI{}, &baseline.RoundRobin{}, listed, tabulated} {
		dom.ViewsInto(req.User, &buf)
		if _, err := sel.Select(req, buf.Views()); err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if bs, ok := sel.(wlan.BatchSelector); ok {
			batch := []wlan.Request{req, {User: users[3], DemandBps: 30}, {User: users[7], DemandBps: 35}}
			if _, err := bs.SelectBatch(batch, buf.Views()); err != nil {
				t.Fatalf("%s: %v", sel.Name(), err)
			}
		}
		if got := materialized.Value() - before; got != 0 {
			t.Fatalf("%s materialised membership %d times, want 0", sel.Name(), got)
		}
	}
	buf.Views()[0].Members()
	if materialized.Value() == before {
		t.Error("Members materialised nothing: the counter is not counting")
	}
}

// TestSelectConcurrentWithMutation runs S³ selections — friend lookups
// on the domain's views, single and batched — while other goroutines
// commit, leave and register APs. Run under -race; a decision
// must always name an AP of its own snapshot.
func TestSelectConcurrentWithMutation(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			users := testUsers(40)
			listed, tabulated := selectorPair(t, randomFriendIndex(rng, users))
			dom := domain.New(domain.Config{})
			aps := make([]trace.APID, 8)
			for i := range aps {
				aps[i] = trace.APID(fmt.Sprintf("ap%d", i))
				if err := dom.AddAP(aps[i], 1e6); err != nil {
					t.Fatal(err)
				}
			}

			const rounds = 400
			var wg sync.WaitGroup
			// Mutators: each churns its own users across the APs; the last
			// also registers a new AP now and then.
			for m := 0; m < 2; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					mine := users[m*20 : m*20+20]
					at := map[trace.UserID]trace.APID{}
					for i := 0; i < rounds; i++ {
						u, ap := mine[i%len(mine)], aps[(i*7+m)%len(aps)]
						if i%5 == 4 {
							if prev, ok := at[u]; ok {
								dom.Leave(u, prev, math.Inf(1))
								delete(at, u)
							}
							continue
						}
						if _, err := dom.Commit([]domain.Placement{{User: u, AP: ap, Prev: at[u], DemandBps: float64(10 + i%50)}}, nil); err == nil {
							at[u] = ap
						}
						if m == 1 && i%40 == 39 {
							if err := dom.AddAP(trace.APID(fmt.Sprintf("late%d", i)), 1e6); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(m)
			}
			for _, sel := range []*Selector{listed, tabulated} {
				wg.Add(1)
				go func(sel *Selector) {
					defer wg.Done()
					var buf domain.ViewBuf
					for i := 0; i < rounds; i++ {
						req := wlan.Request{User: users[i%len(users)], DemandBps: 20}
						dom.ViewsInto(req.User, &buf)
						got, err := sel.Select(req, buf.Views())
						if err != nil {
							t.Error(err)
							return
						}
						both, err := sel.SelectBatch([]wlan.Request{req, {User: users[(i+1)%len(users)], DemandBps: 25}}, buf.Views())
						if err != nil {
							t.Error(err)
							return
						}
						for _, ap := range []trace.APID{got, both[req.User]} {
							known := false
							for _, v := range buf.Views() {
								known = known || v.ID == ap
							}
							if !known {
								t.Errorf("picked %q, not in the snapshot", ap)
								return
							}
						}
					}
				}(sel)
			}
			wg.Wait()
		})
	}
}
