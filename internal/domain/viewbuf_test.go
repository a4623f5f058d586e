package domain

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// sameViews reports the first difference between two snapshots, read
// through the accessors a policy uses: aggregates, then membership.
func sameViews(got, want []APView) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d views, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.CapacityBps != w.CapacityBps || g.LoadBps != w.LoadBps ||
			g.RSSI != w.RSSI || g.NumUsers != w.NumUsers {
			return fmt.Errorf("view %d aggregates: got %+v, want %+v", i, g, w)
		}
		gu, gd := g.Members()
		wu, wd := w.Members()
		if !reflect.DeepEqual(gu, wu) || !reflect.DeepEqual(gd, wd) {
			return fmt.Errorf("view %d (%s) members: got %v %v, want %v %v", i, g.ID, gu, gd, wu, wd)
		}
		if len(gu) != g.NumUsers {
			return fmt.Errorf("view %d (%s): NumUsers %d but %d members", i, g.ID, g.NumUsers, len(gu))
		}
	}
	return nil
}

// TestViewsIntoMatchesViews: the reusable-buffer snapshot must be
// indistinguishable from the allocating Views path across mutations,
// and each view's user count must agree with its materialised members.
func TestViewsIntoMatchesViews(t *testing.T) {
	d := New(Config{Shards: 4})
	for i := 0; i < 9; i++ {
		if err := d.AddAP(trace.APID(fmt.Sprintf("ap%d", i)), 1e6); err != nil {
			t.Fatal(err)
		}
	}
	var ps []Placement
	for i := 0; i < 40; i++ {
		ps = append(ps, Placement{
			User:      trace.UserID(fmt.Sprintf("u%02d", i)),
			AP:        trace.APID(fmt.Sprintf("ap%d", i%9)),
			DemandBps: float64(10 * (i + 1)),
		})
	}
	if _, err := d.Commit(ps, nil); err != nil {
		t.Fatal(err)
	}

	var buf ViewBuf
	check := func(stage string) {
		t.Helper()
		want, wantVer := d.Views("probe")
		d.ViewsInto("probe", &buf)
		if err := sameViews(buf.Views(), want); err != nil {
			t.Fatalf("%s: ViewsInto diverged from Views: %v", stage, err)
		}
		if !reflect.DeepEqual(buf.Version(), wantVer) {
			t.Fatalf("%s: version vector diverged: %v vs %v", stage, buf.Version(), wantVer)
		}
	}
	check("initial")

	// Mutate: partial leave, full leave, a move, an AP removal.
	d.Leave("u00", "ap0", 5)
	check("partial leave")
	if _, ok := d.LeaveAll("u01", "ap1"); !ok {
		t.Fatal("LeaveAll failed")
	}
	check("full leave")
	if _, err := d.Commit([]Placement{{User: "u02", AP: "ap5", Prev: "ap2", DemandBps: 30}}, nil); err != nil {
		t.Fatal(err)
	}
	check("move")
	if _, ok := d.RemoveAP("ap8"); !ok {
		t.Fatal("RemoveAP failed")
	}
	check("AP removed")
}

// TestViewMembershipOnDemand pins the view contract: aggregates are as
// of the snapshot, membership reads see the domain's current state, a
// change in between makes the snapshot's version stale, and a hand-built
// view answers the same accessors from its fixed lists.
func TestViewMembershipOnDemand(t *testing.T) {
	d := New(Config{})
	for _, ap := range []trace.APID{"a", "b"} {
		if err := d.AddAP(ap, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Commit([]Placement{
		{User: "u1", AP: "a", DemandBps: 10},
		{User: "u3", AP: "a", DemandBps: 30},
		{User: "u3", AP: "a", DemandBps: 5}, // a second session stacks
		{User: "u2", AP: "b", DemandBps: 20},
	}, nil); err != nil {
		t.Fatal(err)
	}
	views, ver := d.Views("probe")
	a := views[0]
	if a.ID != "a" || a.NumUsers != 2 || a.LoadBps != 45 {
		t.Fatalf("view a = %+v, want 2 users at 45 B/s", a)
	}
	query := []trace.UserID{"u0", "u1", "u2", "u3"}
	if got := a.SumDemands(query, 1); got != 45 {
		t.Errorf("SumDemands on a = %v, want 45 (u1 + stacked u3)", got)
	}
	if got := views[1].SumDemands(query, 1); got != 20 {
		t.Errorf("SumDemands on b = %v, want 20", got)
	}
	if got := a.SumDemands(nil, 1); got != 0 {
		t.Errorf("SumDemands(nil) = %v, want 0", got)
	}

	if _, ok := d.LeaveAll("u1", "a"); !ok {
		t.Fatal("LeaveAll failed")
	}
	if a.NumUsers != 2 || a.LoadBps != 45 {
		t.Errorf("aggregates moved with the domain: %+v", a)
	}
	if got := a.SumDemands(query, 1); got != 35 {
		t.Errorf("SumDemands after leave = %v, want 35 (current state)", got)
	}
	if users, demands := a.Members(); !reflect.DeepEqual(users, []trace.UserID{"u3"}) ||
		!reflect.DeepEqual(demands, []float64{35}) {
		t.Errorf("Members after leave = %v %v, want [u3] [35]", users, demands)
	}
	if _, err := d.Commit([]Placement{{User: "probe", AP: "a", DemandBps: 1}}, ver); !errors.Is(err, ErrStale) {
		t.Errorf("commit on the pre-leave version = %v, want ErrStale", err)
	}

	// A view of a removed AP still answers, from the drained state.
	if _, ok := d.RemoveAP("a"); !ok {
		t.Fatal("RemoveAP failed")
	}
	if got := a.SumDemands(query, 1); got != 0 {
		t.Errorf("SumDemands on a removed AP = %v, want 0", got)
	}

	static := APView{ID: "s"}.WithMembers([]trace.UserID{"u1", "u3", "u5"}, []float64{10})
	if static.NumUsers != 3 {
		t.Errorf("static NumUsers = %d, want 3", static.NumUsers)
	}
	if got := static.SumDemands(query, 7); got != 17 {
		t.Errorf("static SumDemands = %v, want 17 (10 tracked + 7 untracked)", got)
	}
	users, demands := static.Members()
	users[0] = "scribbled"
	if again, _ := static.Members(); again[0] != "u1" || len(demands) != 1 {
		t.Errorf("static Members is not a copy: %v %v", again, demands)
	}
}

// TestViewsIntoCostIsPerAP: a warmed-up ViewBuf snapshot allocates
// nothing and copies no membership, however many users are resident.
func TestViewsIntoCostIsPerAP(t *testing.T) {
	d, _ := newBenchDomain(t, 1, 64, 20_000)
	var buf ViewBuf
	d.ViewsInto("probe", &buf)
	before := obsMaterialized.Value()
	if allocs := testing.AllocsPerRun(20, func() { d.ViewsInto("probe", &buf) }); allocs != 0 {
		t.Errorf("warm ViewsInto allocates %v times per call, want 0", allocs)
	}
	if got := obsMaterialized.Value() - before; got != 0 {
		t.Errorf("ViewsInto materialised membership %d times, want 0", got)
	}
	residents := 0
	for _, v := range buf.Views() {
		residents += v.NumUsers
	}
	if residents != 20_000 {
		t.Errorf("user counts sum to %d, want 20000", residents)
	}
}

// TestSortedMirrorConsistency: the incrementally maintained sorted
// user/demand mirrors must agree with the authoritative map after every
// kind of mutation.
func TestSortedMirrorConsistency(t *testing.T) {
	d := New(Config{Shards: 1})
	if err := d.AddAP("ap", 1e6); err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		run  func()
	}{
		{"joins", func() {
			var ps []Placement
			for i := 0; i < 16; i++ {
				ps = append(ps, Placement{User: trace.UserID(fmt.Sprintf("z%02d", 15-i)), AP: "ap", DemandBps: float64(i + 1)})
			}
			if _, err := d.Commit(ps, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"demand bump", func() {
			if _, err := d.Commit([]Placement{{User: "z05", AP: "ap", DemandBps: 100}}, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"partial leave", func() { d.Leave("z05", "ap", 40) }},
		{"full leave via drain", func() { d.Leave("z06", "ap", 1e9) }},
		{"leave all", func() { d.LeaveAll("z07", "ap") }},
	}
	for _, m := range mutate {
		m.run()
		info, ok := d.Info("ap")
		if !ok {
			t.Fatalf("%s: AP vanished", m.name)
		}
		sh := d.shardOf("ap")
		sh.mu.RLock()
		st := sh.aps["ap"]
		if len(st.sortedU) != len(st.users) || len(st.sortedD) != len(st.users) {
			sh.mu.RUnlock()
			t.Fatalf("%s: mirror length %d/%d vs map %d", m.name, len(st.sortedU), len(st.sortedD), len(st.users))
		}
		for i, u := range st.sortedU {
			if i > 0 && st.sortedU[i-1] >= u {
				sh.mu.RUnlock()
				t.Fatalf("%s: mirror out of order at %d: %v", m.name, i, st.sortedU)
			}
			if st.users[u] != st.sortedD[i] {
				sh.mu.RUnlock()
				t.Fatalf("%s: demand mirror for %s = %v, map %v", m.name, u, st.sortedD[i], st.users[u])
			}
		}
		sh.mu.RUnlock()
		for i, u := range info.Users {
			if i > 0 && info.Users[i-1] >= u {
				t.Fatalf("%s: Info users out of order: %v", m.name, info.Users)
			}
			_ = info.UserDemands[i]
		}
	}
}
