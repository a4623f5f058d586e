package domain

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestAdmits(t *testing.T) {
	cases := []struct {
		cap, load, demand float64
		want              bool
	}{
		{100, 60, 40, true},   // exactly full fits
		{100, 60, 41, false},  // over by one
		{0, 1e12, 1e12, true}, // zero capacity = unconstrained
		{-5, 10, 10, true},    // negative capacity = unconstrained
		{100, 0, 100, true},
		{100, 100, 0.001, false},
	}
	for _, c := range cases {
		if got := Admits(c.cap, c.load, c.demand); got != c.want {
			t.Errorf("Admits(%v,%v,%v) = %v, want %v", c.cap, c.load, c.demand, got, c.want)
		}
	}
	v := APView{CapacityBps: 100, LoadBps: 60}
	if !v.HasCapacityFor(40) || v.HasCapacityFor(41) {
		t.Error("HasCapacityFor must match Admits")
	}
}

func TestAddRemoveAP(t *testing.T) {
	d := New(Config{})
	if err := d.AddAP("", 1); err == nil {
		t.Fatal("empty AP id must error")
	}
	if err := d.AddAP("ap1", 100); err != nil {
		t.Fatal(err)
	}
	if err := d.AddAP("ap1", 100); err == nil {
		t.Fatal("duplicate AP must error")
	}
	if err := d.AddAP("ap2", 200); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2", d.Size())
	}
	if got := d.APs(); !reflect.DeepEqual(got, []trace.APID{"ap1", "ap2"}) {
		t.Fatalf("APs = %v", got)
	}

	if _, err := d.Commit([]Placement{
		{User: "u2", AP: "ap1", DemandBps: 5},
		{User: "u1", AP: "ap1", DemandBps: 3},
	}, nil); err != nil {
		t.Fatal(err)
	}
	evicted, ok := d.RemoveAP("ap1")
	if !ok {
		t.Fatal("RemoveAP(ap1) = !ok")
	}
	want := []Eviction{{User: "u1", DemandBps: 3}, {User: "u2", DemandBps: 5}}
	if !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted = %v, want %v (sorted)", evicted, want)
	}
	if _, ok := d.RemoveAP("ap1"); ok {
		t.Fatal("removing a removed AP must report !ok")
	}
	if d.Size() != 1 {
		t.Fatalf("Size = %d, want 1", d.Size())
	}
}

// TestEvictionsCountUsers: domain.evictions moves by one per user that
// RemoveAP drains, not by one per AP.
func TestEvictionsCountUsers(t *testing.T) {
	d := New(Config{})
	for _, ap := range []trace.APID{"a", "b"} {
		if err := d.AddAP(ap, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Commit([]Placement{
		{User: "u1", AP: "a", DemandBps: 1}, {User: "u2", AP: "a", DemandBps: 1},
		{User: "u3", AP: "a", DemandBps: 1}, {User: "u4", AP: "b", DemandBps: 1},
		{User: "u5", AP: "b", DemandBps: 1},
	}, nil); err != nil {
		t.Fatal(err)
	}
	before := obsEvictions.Value()
	d.RemoveAP("a")
	if got := obsEvictions.Value() - before; got != 3 {
		t.Errorf("removing an AP with 3 users: domain.evictions moved by %d, want 3", got)
	}
	before = obsEvictions.Value()
	d.RemoveAP("b")
	if got := obsEvictions.Value() - before; got != 2 {
		t.Errorf("removing an AP with 2 users: domain.evictions moved by %d, want 2", got)
	}
}

func TestCommitStaleAndForced(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 8; i++ {
		if err := d.AddAP(trace.APID(fmt.Sprintf("ap%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Any mutation between snapshot and commit makes it stale, whichever
	// AP it lands on: a decision may have read every AP.
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"a commit on the target", func() { d.Commit([]Placement{{User: "x", AP: "ap0", DemandBps: 1}}, nil) }},
		{"a commit elsewhere", func() { d.Commit([]Placement{{User: "y", AP: "ap5", DemandBps: 1}}, nil) }},
		{"a leave elsewhere", func() { d.LeaveAll("y", "ap5") }},
		{"a capacity change", func() { d.SetCapacity("ap7", 10) }},
		{"an AP registration", func() { d.AddAP("ap8", 0) }},
	} {
		_, ver := viewsOf(d, "u")
		m.mutate()
		if _, err := d.Commit([]Placement{{User: "u", AP: "ap0", DemandBps: 1}}, ver); !errors.Is(err, ErrStale) {
			t.Fatalf("commit after %s: err = %v, want ErrStale", m.name, err)
		}
	}
	// A load report is advisory: it must NOT invalidate the commit.
	_, ver := viewsOf(d, "u")
	if !d.SetReported("ap0", 123) {
		t.Fatal("SetReported(ap0) = false")
	}
	if _, err := d.Commit([]Placement{{User: "u", AP: "ap0", DemandBps: 1}}, ver); err != nil {
		t.Fatalf("commit invalidated by a load report: %v", err)
	}
	// Forced commit ignores staleness entirely.
	_, ver = viewsOf(d, "u")
	if _, err := d.Commit([]Placement{{User: "x2", AP: "ap1", DemandBps: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit([]Placement{{User: "u2", AP: "ap0", DemandBps: 1}}, nil); err != nil {
		t.Fatalf("forced commit: %v", err)
	}
	if _, err := d.Commit([]Placement{{User: "u3", AP: "ap0", DemandBps: 1}}, ver); !errors.Is(err, ErrStale) {
		t.Fatalf("validated commit after forced ones: err = %v, want ErrStale", err)
	}
}

func TestCommitAtomicOnUnknownAP(t *testing.T) {
	d := New(Config{})
	if err := d.AddAP("known", 0); err != nil {
		t.Fatal(err)
	}
	_, err := d.Commit([]Placement{
		{User: "u1", AP: "known", DemandBps: 5},
		{User: "u2", AP: "ghost", DemandBps: 5},
	}, nil)
	if !errors.Is(err, ErrUnknownAP) {
		t.Fatalf("err = %v, want ErrUnknownAP", err)
	}
	info, _ := d.Info("known")
	if info.BelievedBps != 0 || len(info.Users) != 0 {
		t.Fatalf("failed commit must apply nothing: %+v", info)
	}
}

func TestCommitOverloadAccounting(t *testing.T) {
	d := New(Config{})
	if err := d.AddAP("ap", 10); err != nil {
		t.Fatal(err)
	}
	// Sequential placements inside one batch see each other's load:
	// 6 fits, 6 overloads.
	res, err := d.Commit([]Placement{
		{User: "u1", AP: "ap", DemandBps: 6},
		{User: "u2", AP: "ap", DemandBps: 6},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", res.Overloads)
	}
}

func TestCommitMoveSemantics(t *testing.T) {
	d := New(Config{})
	for _, ap := range []trace.APID{"a", "b"} {
		if err := d.AddAP(ap, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Commit([]Placement{{User: "u", AP: "a", DemandBps: 4}}, nil); err != nil {
		t.Fatal(err)
	}
	// Move a -> b with a revised demand: the removal and placement are
	// one atomic commit.
	if _, err := d.Commit([]Placement{{User: "u", AP: "b", DemandBps: 9, Prev: "a"}}, nil); err != nil {
		t.Fatal(err)
	}
	ia, _ := d.Info("a")
	ib, _ := d.Info("b")
	if len(ia.Users) != 0 || ia.BelievedBps != 0 {
		t.Fatalf("source AP not drained: %+v", ia)
	}
	if !reflect.DeepEqual(ib.Users, []trace.UserID{"u"}) || ib.BelievedBps != 9 {
		t.Fatalf("move target: %+v", ib)
	}
	// Self-move (re-association to the same AP) behaves as a demand
	// update, not a double-count.
	if _, err := d.Commit([]Placement{{User: "u", AP: "b", DemandBps: 2, Prev: "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	ib, _ = d.Info("b")
	if ib.BelievedBps != 2 || len(ib.Users) != 1 {
		t.Fatalf("self-move: %+v", ib)
	}
}

func TestLeaveMultiplicityAndLeaveAll(t *testing.T) {
	d := New(Config{})
	if err := d.AddAP("ap", 0); err != nil {
		t.Fatal(err)
	}
	// Two concurrent sessions by the same user (simulator semantics).
	if _, err := d.Commit([]Placement{
		{User: "u", AP: "ap", DemandBps: 3},
		{User: "u", AP: "ap", DemandBps: 4},
	}, nil); err != nil {
		t.Fatal(err)
	}
	info, _ := d.Info("ap")
	if info.BelievedBps != 7 || len(info.Users) != 1 {
		t.Fatalf("stacked sessions: %+v", info)
	}
	if !d.Leave("u", "ap", 3) {
		t.Fatal("Leave must find the user")
	}
	info, _ = d.Info("ap")
	if info.BelievedBps != 4 || len(info.Users) != 1 {
		t.Fatalf("after one leave: %+v", info)
	}
	if !d.Leave("u", "ap", 4) {
		t.Fatal("Leave must find the user")
	}
	info, _ = d.Info("ap")
	if info.BelievedBps != 0 || len(info.Users) != 0 {
		t.Fatalf("after draining: %+v", info)
	}
	if d.Leave("u", "ap", 1) {
		t.Fatal("Leave of a gone user must report false")
	}

	// LeaveAll removes the user wholesale (controller semantics).
	if _, err := d.Commit([]Placement{{User: "v", AP: "ap", DemandBps: 11}}, nil); err != nil {
		t.Fatal(err)
	}
	rel, ok := d.LeaveAll("v", "ap")
	if !ok || rel != 11 {
		t.Fatalf("LeaveAll = (%v, %v), want (11, true)", rel, ok)
	}
	if _, ok := d.LeaveAll("v", "ap"); ok {
		t.Fatal("second LeaveAll must report false")
	}
}

func TestViewsLoadModes(t *testing.T) {
	// mk holds 10 believed on one AP and, unless reported is 0, a report.
	mk := func(mode LoadMode, reported float64) *Domain {
		d := New(Config{Mode: mode})
		if err := d.AddAP("ap", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Commit([]Placement{{User: "u", AP: "ap", DemandBps: 10}}, nil); err != nil {
			t.Fatal(err)
		}
		if reported != 0 {
			d.SetReported("ap", reported)
		}
		return d
	}
	// Never reported, the default LoadMax is the believed sum: the
	// simulator's live view.
	if v, _ := viewsOf(mk(Config{}.Mode, 0), "u"); v[0].LoadBps != 10 {
		t.Errorf("default mode without a report = %v, want 10", v[0].LoadBps)
	}
	if v, _ := viewsOf(mk(LoadReported, 25), "u"); v[0].LoadBps != 25 {
		t.Errorf("LoadReported = %v, want 25", v[0].LoadBps)
	}
	if v, _ := viewsOf(mk(LoadMax, 25), "u"); v[0].LoadBps != 25 {
		t.Errorf("LoadMax over a larger report = %v, want 25", v[0].LoadBps)
	}
	if v, _ := viewsOf(mk(LoadMax, 5), "u"); v[0].LoadBps != 10 {
		t.Errorf("LoadMax over a smaller report = %v, want 10", v[0].LoadBps)
	}

	// PublishReports snapshots believed into reported.
	d := New(Config{Mode: LoadReported})
	if err := d.AddAP("ap", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit([]Placement{{User: "u", AP: "ap", DemandBps: 10}}, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := viewsOf(d, "u"); v[0].LoadBps != 0 {
		t.Fatalf("before publish: %v, want 0", v[0].LoadBps)
	}
	d.PublishReports()
	if v, _ := viewsOf(d, "u"); v[0].LoadBps != 10 {
		t.Fatalf("after publish: %v, want 10", v[0].LoadBps)
	}
}

// shardCountInvariantDigest is FNV-1a over everything externally visible
// that TestShardCountInvariant's operation sequence leaves behind,
// computed at the last release that had AP shards, where 1, 4 and 16
// shards all produced it.
const shardCountInvariantDigest uint64 = 7349079058474352381

// TestShardCountInvariant was the proof that the shard count never
// altered a result; with one lock domain left it pins that result
// across releases instead: same views (IDs, loads, users, demands, and
// the observer's SyntheticRSSI, which views used to carry), same AP
// list, same exported state.
func TestShardCountInvariant(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 40; i++ {
		if err := d.AddAP(trace.APID(fmt.Sprintf("ap%02d", i)), float64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	var ps []Placement
	for i := 0; i < 200; i++ {
		ps = append(ps, Placement{
			User:      trace.UserID(fmt.Sprintf("u%03d", i%60)),
			AP:        trace.APID(fmt.Sprintf("ap%02d", (i*7)%40)),
			DemandBps: float64(1 + i%13),
		})
	}
	if _, err := d.Commit(ps, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d.Leave(trace.UserID(fmt.Sprintf("u%03d", i%60)), trace.APID(fmt.Sprintf("ap%02d", (i*7)%40)), float64(1+i%13))
	}
	d.RemoveAP("ap05")
	d.PublishReports()

	h := fnv.New64a()
	views, _ := viewsOf(d, "observer")
	for _, v := range views {
		users, demands := v.Members()
		fmt.Fprintf(h, "%s|%v|%v|%v|%d|%v|%v\n", v.ID, v.CapacityBps, v.LoadBps, SyntheticRSSI("observer", v.ID), v.NumUsers, users, demands)
	}
	fmt.Fprintf(h, "%v\n", d.APs())
	state, err := json.Marshal(d.ExportState(nil))
	if err != nil {
		t.Fatal(err)
	}
	h.Write(state)
	if got := h.Sum64(); got != shardCountInvariantDigest {
		t.Errorf("state digest = %d, want %d", got, shardCountInvariantDigest)
	}
}

// TestViewsSortedAcrossShards: APs registered in descending order come
// back ascending — ViewsInto relies on AddAP keeping ids sorted, it does
// not sort.
func TestViewsSortedAcrossShards(t *testing.T) {
	d := New(Config{})
	for i := 31; i >= 0; i-- {
		if err := d.AddAP(trace.APID(fmt.Sprintf("ap%02d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	views, _ := viewsOf(d, "u")
	if len(views) != 32 {
		t.Fatalf("%d views, want 32", len(views))
	}
	for i := 1; i < len(views); i++ {
		if views[i-1].ID >= views[i].ID {
			t.Fatalf("views not ID-sorted at %d: %v >= %v", i, views[i-1].ID, views[i].ID)
		}
	}
}

// TestConcurrentCommitsConserveLoad hammers the commit path from many
// goroutines — check-and-retry commits, forced fallbacks, leaves, and
// structural churn on disjoint APs — and asserts the accounting drains
// to zero. Run under -race this covers the domain lock.
func TestConcurrentCommitsConserveLoad(t *testing.T) {
	d := New(Config{})
	const stableAPs = 24
	aps := make([]trace.APID, stableAPs)
	for i := range aps {
		aps[i] = trace.APID(fmt.Sprintf("ap%02d", i))
		if err := d.AddAP(aps[i], 0); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const opsPer = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := trace.UserID(fmt.Sprintf("user%d", w))
			for i := 0; i < opsPer; i++ {
				// Target only the stable APs: Views() transiently
				// includes churn APs while they are live, and committing
				// to one races with its removal.
				_, ver := viewsOf(d, u)
				ap := aps[(w*31+i)%len(aps)]
				if _, err := d.Commit([]Placement{{User: u, AP: ap, DemandBps: 1}}, ver); err != nil {
					if !errors.Is(err, ErrStale) {
						errs <- err
						return
					}
					if _, err := d.Commit([]Placement{{User: u, AP: ap, DemandBps: 1}}, nil); err != nil {
						errs <- err
						return
					}
				}
				if !d.Leave(u, ap, 1) {
					errs <- fmt.Errorf("worker %d: leave lost user on %s", w, ap)
					return
				}
			}
		}(w)
	}
	// Structural churn on APs nobody commits to: registrations and
	// removals bump the version and exercise ErrStale.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id := trace.APID(fmt.Sprintf("churn%d", i%4))
			if err := d.AddAP(id, 100); err == nil {
				d.RemoveAP(id)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range aps {
		info, ok := d.Info(id)
		if !ok {
			t.Fatalf("stable AP %s vanished", id)
		}
		if info.BelievedBps != 0 || len(info.Users) != 0 {
			t.Fatalf("load not conserved on %s: %+v", id, info)
		}
	}
}

// TestConcurrentMultiShardCommits is the atomicity test: goroutines
// concurrently commit placement sets spread over several APs, move the
// whole set in a second commit, then leave, and both the per-AP load and
// the domain's entry count must drain to zero.
func TestConcurrentMultiShardCommits(t *testing.T) {
	d := New(Config{})
	const apCount = 32
	aps := make([]trace.APID, apCount)
	for i := range aps {
		aps[i] = trace.APID(fmt.Sprintf("ap%02d", i))
		if err := d.AddAP(aps[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				// A 4-user "clique" spread over 4 APs, then moved on.
				ps := make([]Placement, 4)
				for k := range ps {
					ps[k] = Placement{
						User:      trace.UserID(fmt.Sprintf("w%dc%d", w, k)),
						AP:        aps[(w*5+i+k*7)%apCount],
						DemandBps: 2,
					}
				}
				if _, err := d.Commit(ps, nil); err != nil {
					t.Error(err)
					return
				}
				for k := range ps {
					ps[k].Prev, ps[k].AP = ps[k].AP, aps[(w*5+i+k*7+3)%apCount]
				}
				if _, err := d.Commit(ps, nil); err != nil {
					t.Error(err)
					return
				}
				for _, p := range ps {
					if !d.Leave(p.User, p.AP, 2) {
						t.Errorf("leave lost %s on %s", p.User, p.AP)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, id := range aps {
		info, _ := d.Info(id)
		if info.BelievedBps != 0 || len(info.Users) != 0 {
			t.Fatalf("load not conserved on %s: %+v", id, info)
		}
	}
	if d.entries != 0 {
		t.Fatalf("entries = %d after every user left, want 0", d.entries)
	}
}

// This test pins domain.Hash (its id dates from when Hash also routed
// APs to lock partitions): federation maps an AP or a user to a group
// with Hash(id) % groups, and a cluster's per-group journals and leases
// outlive a release. The constants are 32-bit FNV-1a.
func TestShardOfStable(t *testing.T) {
	for id, want := range map[string]uint32{
		"":                   2166136261,
		"ap-0":               259970961,
		"building-3-floor-7": 26526142,
		"user-000042":        1631876155,
	} {
		if got := Hash(id); got != want {
			t.Errorf("Hash(%q) = %d, want %d", id, got, want)
		}
	}
}

// TestPublishReportsTracksEveryMove: a publish follows every way a
// believed or reported load can move — a SetReported in between (which
// leaves the version alone) is overwritten, a Commit, a Leave, a LeaveAll
// and a move are tracked — and two publishes with nothing between
// them leave what a publish on a fresh domain in the same state would.
func TestPublishReportsTracksEveryMove(t *testing.T) {
	d := New(Config{Mode: LoadReported})
	for _, ap := range []trace.APID{"ap0", "ap1"} {
		if err := d.AddAP(ap, 0); err != nil {
			t.Fatal(err)
		}
	}
	reported := func() [2]float64 {
		views, _ := viewsOf(d, "u")
		var out [2]float64
		for _, v := range views {
			out[v.ID[2]-'0'] = v.LoadBps
		}
		return out
	}
	commit := func(u trace.UserID, ap trace.APID, demand float64) {
		t.Helper()
		if _, err := d.Commit([]Placement{{User: u, AP: ap, DemandBps: demand}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		move func()
		want [2]float64
	}{
		{"Commit", func() { commit("a", "ap0", 10); commit("b", "ap1", 4); commit("c", "ap1", 3) }, [2]float64{10, 7}},
		{"nothing", func() {}, [2]float64{10, 7}},
		{"SetReported", func() { d.SetReported("ap0", 99) }, [2]float64{10, 7}},
		{"SetReported to the believed load", func() { d.SetReported("ap1", 7); d.SetReported("ap1", 8) }, [2]float64{10, 7}},
		{"Leave", func() { d.Leave("b", "ap1", 4) }, [2]float64{10, 3}},
		{"LeaveAll", func() { d.LeaveAll("c", "ap1") }, [2]float64{10, 0}},
		{"a move to the other AP", func() {
			commit("a", "ap0", 5)
			d.PublishReports()
			if _, err := d.Commit([]Placement{{User: "a", AP: "ap1", DemandBps: 5, Prev: "ap0"}}, nil); err != nil {
				t.Fatal(err)
			}
		}, [2]float64{0, 5}},
	}
	for _, step := range steps {
		step.move()
		d.PublishReports()
		if got := reported(); got != step.want {
			t.Errorf("publish after %s reports %v, want %v", step.name, got, step.want)
		}
		d.PublishReports()
		fresh := New(Config{Mode: LoadReported})
		if err := fresh.ImportState(d.ExportState(nil)); err != nil {
			t.Fatal(err)
		}
		fresh.PublishReports()
		if !reflect.DeepEqual(d.ExportState(nil), fresh.ExportState(nil)) {
			t.Errorf("after %s and two publishes: state %+v, a fresh domain's publish leaves %+v", step.name, d.ExportState(nil), fresh.ExportState(nil))
		}
	}
}
