package domain

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

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
			g.NumUsers != w.NumUsers {
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

// viewsOf takes one snapshot into a fresh buffer.
func viewsOf(d *Domain, u trace.UserID) ([]APView, Version) {
	var buf ViewBuf
	d.ViewsInto(u, &buf)
	return buf.Views(), buf.Version()
}

// viewOf returns the view of AP id in a fresh snapshot of d.
func viewOf(d *Domain, id trace.APID) (APView, bool) {
	views, _ := viewsOf(d, "probe")
	at := slices.IndexFunc(views, func(v APView) bool { return v.ID == id })
	if at < 0 {
		return APView{}, false
	}
	return views[at], true
}

// TestAPViewSize: a view is its aggregates plus one pointer to the
// domain's AP state, so a snapshot copies 48 bytes per AP.
func TestAPViewSize(t *testing.T) {
	if got := unsafe.Sizeof(APView{}); got != 48 {
		t.Errorf("APView is %d bytes, want 48", got)
	}
}

// TestViewsIntoMatchesViews: a snapshot into a reused buffer must be
// indistinguishable from one into a fresh buffer across mutations, and
// each view's user count must agree with its materialised members.
func TestViewsIntoMatchesViews(t *testing.T) {
	d := New(Config{})
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
		want, wantVer := viewsOf(d, "probe")
		d.ViewsInto("probe", &buf)
		if err := sameViews(buf.Views(), want); err != nil {
			t.Fatalf("%s: reused buffer diverged from a fresh one: %v", stage, err)
		}
		if *buf.Version() != *wantVer {
			t.Fatalf("%s: version diverged: %d vs %d", stage, *buf.Version(), *wantVer)
		}
	}
	check("initial")

	// Mutate: partial leave, full leave, a move, an AP registration.
	d.Leave("u00", "ap0", 5)
	check("partial leave")
	if !d.Leave("u01", "ap1", math.Inf(1)) {
		t.Fatal("Leave(+Inf) failed")
	}
	check("full leave")
	if _, err := d.Commit([]Placement{{User: "u02", AP: "ap5", Prev: "ap2", DemandBps: 30}}, nil); err != nil {
		t.Fatal(err)
	}
	check("move")
	if err := d.AddAP("ap-new", 100); err != nil {
		t.Fatal(err)
	}
	check("AP registered")
}

// TestViewMembershipOnDemand pins the view contract: aggregates are as
// of the snapshot, membership reads see the domain's current state, a
// change in between makes the snapshot's version stale, and a view
// literal built without a domain has no members.
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
	views, ver := viewsOf(d, "probe")
	a := views[0]
	if a.ID != "a" || a.NumUsers != 2 || a.LoadBps != 45 {
		t.Fatalf("view a = %+v, want 2 users at 45 B/s", a)
	}
	query := []trace.UserID{"u0", "u1", "u2", "u3"}
	if got := a.SumDemands(query); got != 45 {
		t.Errorf("SumDemands on a = %v, want 45 (u1 + stacked u3)", got)
	}
	if got := views[1].SumDemands(query); got != 20 {
		t.Errorf("SumDemands on b = %v, want 20", got)
	}
	if got := a.SumDemands(nil); got != 0 {
		t.Errorf("SumDemands(nil) = %v, want 0", got)
	}

	if !d.Leave("u1", "a", math.Inf(1)) {
		t.Fatal("Leave(+Inf) failed")
	}
	if a.NumUsers != 2 || a.LoadBps != 45 {
		t.Errorf("aggregates moved with the domain: %+v", a)
	}
	if got := a.SumDemands(query); got != 35 {
		t.Errorf("SumDemands after leave = %v, want 35 (current state)", got)
	}
	users, demands := a.Members()
	if !reflect.DeepEqual(users, []trace.UserID{"u3"}) || !reflect.DeepEqual(demands, []float64{35}) {
		t.Errorf("Members after leave = %v %v, want [u3] [35]", users, demands)
	}
	users[0] = "scribbled"
	if again, _ := a.Members(); again[0] != "u3" {
		t.Errorf("Members is not a copy: %v", again)
	}
	if _, err := d.Commit([]Placement{{User: "probe", AP: "a", DemandBps: 1}}, ver); !errors.Is(err, ErrStale) {
		t.Errorf("commit on the pre-leave version = %v, want ErrStale", err)
	}

	literal := APView{ID: "s", NumUsers: 3}
	if got := literal.SumDemands(query); got != 0 {
		t.Errorf("literal SumDemands = %v, want 0", got)
	}
	if users, demands := literal.Members(); users != nil || demands != nil {
		t.Errorf("literal Members = %v %v, want none", users, demands)
	}
}

// TestViewsIntoCostIsPerAP: a warmed-up ViewBuf snapshot allocates
// nothing and copies no membership, however many users are resident,
// and neither does the validated single-placement commit that follows
// it — the Version handle is not an allocation per decision.
func TestViewsIntoCostIsPerAP(t *testing.T) {
	d, _ := newBenchDomain(t, 64, 20_000)
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

	ps := []Placement{{User: "probe", AP: "ap000", DemandBps: 1}}
	decide := func() {
		d.ViewsInto("probe", &buf)
		if _, err := d.Commit(ps, buf.Version()); err != nil {
			t.Fatal(err)
		}
		ps[0].Prev = ps[0].AP
	}
	decide() // insert the user once: map growth is not a steady-state cost
	if allocs := testing.AllocsPerRun(20, decide); allocs != 0 {
		t.Errorf("warm ViewsInto + validated Commit allocates %v times, want 0", allocs)
	}
}

// TestSortedMirrorConsistency: both readers that promise order —
// ExportState and Members — must return the AP's membership strictly
// ascending by user and demand-aligned with a model map, after every
// kind of mutation.
func TestSortedMirrorConsistency(t *testing.T) {
	d := New(Config{})
	if err := d.AddAP("ap", 1e6); err != nil {
		t.Fatal(err)
	}
	model := map[trace.UserID]float64{}
	aligned := func(stage, reader string, users []trace.UserID, demands []float64) {
		t.Helper()
		if len(users) != len(model) || len(demands) != len(users) {
			t.Fatalf("%s: %s has %d users, %d demands; model %d", stage, reader, len(users), len(demands), len(model))
		}
		for i, u := range users {
			if i > 0 && users[i-1] >= u {
				t.Fatalf("%s: %s out of order at %d: %v", stage, reader, i, users)
			}
			if want, ok := model[u]; !ok || demands[i] != want {
				t.Fatalf("%s: %s demand for %s = %v, model %v (present %v)", stage, reader, u, demands[i], want, ok)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		exp := d.ExportState(nil).APs[0]
		aligned(stage, "ExportState", exp.Users, exp.Demands)
		views, _ := viewsOf(d, "probe")
		users, demands := views[0].Members()
		aligned(stage, "Members", users, demands)
	}
	commit := func(u trace.UserID, demand float64) {
		t.Helper()
		if _, err := d.Commit([]Placement{{User: u, AP: "ap", DemandBps: demand}}, nil); err != nil {
			t.Fatal(err)
		}
		model[u] += demand
	}
	leave := func(u trace.UserID, demand float64) {
		d.Leave(u, "ap", demand)
		cur, ok := model[u]
		if !ok {
			return
		}
		if rem := cur - min(demand, cur); rem <= 1e-9 {
			delete(model, u)
		} else {
			model[u] = rem
		}
	}

	for i := 0; i < 16; i++ { // joins in descending user order
		commit(trace.UserID(fmt.Sprintf("z%02d", 15-i)), float64(i+1))
	}
	check("joins")
	commit("z05", 100)
	check("demand bump")
	leave("z05", 40)
	check("partial leave")
	leave("z06", 1e9)
	check("drain to zero")
	d.Leave("z07", "ap", math.Inf(1))
	delete(model, "z07")
	check("leave all")

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		u := trace.UserID(fmt.Sprintf("r%02d", rng.Intn(40)))
		if rng.Intn(3) > 0 {
			commit(u, float64(1+rng.Intn(50)))
		} else {
			leave(u, float64(1+rng.Intn(80)))
		}
		check(fmt.Sprintf("random step %d", i))
	}
}
