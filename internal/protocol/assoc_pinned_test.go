package protocol

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// eventLog is an observer that keeps every lifecycle event, in order.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) Connect(u trace.UserID, ap trace.APID, ts int64) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf("connect %s %s @%d", u, ap, ts))
	l.mu.Unlock()
}

func (l *eventLog) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf("disconnect %s %s @%d", u, ap, ts))
	l.mu.Unlock()
	return nil
}

// dropFromBatch is an S³ selector whose joint decision leaves one user
// out of the returned map — Algorithm 1 itself places everyone it is
// asked about, and the controller's contract covers a policy that does
// not.
type dropFromBatch struct {
	*core.Selector
	drop trace.UserID
}

func (s dropFromBatch) SelectBatch(reqs []wlan.Request, aps []wlan.APView) (map[trace.UserID]trace.APID, error) {
	m, err := s.Selector.SelectBatch(reqs, aps)
	delete(m, s.drop)
	return m, err
}

// routeTable is a policy that places each user where the table says, so
// a script decides every move, refresh and joint placement itself.
type routeTable map[trace.UserID]trace.APID

func (routeTable) Name() string { return "table" }

func (r routeTable) Select(req wlan.Request, _ []wlan.APView) (trace.APID, error) {
	return r[req.User], nil
}

func (r routeTable) SelectBatch(reqs []wlan.Request, _ []wlan.APView) (map[trace.UserID]trace.APID, error) {
	out := make(map[trace.UserID]trace.APID, len(reqs))
	for _, q := range reqs {
		out[q.User] = r[q.User]
	}
	return out, nil
}

// TestObserverOrderJournalIndependent runs one scripted lifecycle —
// associate, move, same-AP refresh, a joint AssociateBatch, disassociate
// and a lease expiry on a fake clock — through an unjournaled and a
// journaled controller: the observer hears the same events in the same
// order from both, because observers hear every event in commit order
// whether or not a journal is attached.
func TestObserverOrderJournalIndependent(t *testing.T) {
	run := func(opts ...ControllerOption) []string {
		t.Helper()
		var (
			clock  atomic.Int64
			events eventLog
		)
		route := routeTable{}
		clock.Store(100)
		c, err := NewController(route, append(opts,
			WithClock(clock.Load), WithObserver(&events), WithLease(10))...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, ap := range []trace.APID{"ap-a", "ap-b"} {
			if err := c.RegisterAP(ap, 1e6); err != nil {
				t.Fatal(err)
			}
		}
		// ap-x is agent-registered at 100 and never reports again: its
		// lease lapses after 110.
		if _, _, err := c.registerAgent(nil, "ap-x", 1e6); err != nil {
			t.Fatal(err)
		}
		step := func(ts int64, f func() error) {
			t.Helper()
			clock.Store(ts)
			if err := f(); err != nil {
				t.Fatalf("@%d: %v", ts, err)
			}
		}
		assoc := func(u trace.UserID, ap trace.APID, demand float64) func() error {
			return func() error {
				route[u] = ap
				_, err := c.Associate(u, demand)
				return err
			}
		}
		step(100, assoc("u1", "ap-a", 100))
		step(101, assoc("u1", "ap-b", 100)) // move
		step(102, assoc("u1", "ap-b", 200)) // same-AP refresh: no events
		step(103, func() error {
			route["u2"], route["u3"], route["u1"] = "ap-x", "ap-a", "ap-a"
			_, err := c.AssociateBatch([]wlan.Request{
				{User: "u2", DemandBps: 100}, {User: "u3", DemandBps: 100}, {User: "u1", DemandBps: 100},
			})
			return err
		})
		step(104, func() error { c.disassociate("u3", nil); return nil })
		step(200, assoc("u4", "ap-b", 100)) // sweeps ap-x's lapsed lease first
		return events.events
	}

	want := []string{
		"connect u1 ap-a @100",
		"disconnect u1 ap-a @101",
		"connect u1 ap-b @101",
		"disconnect u1 ap-b @103",
		"connect u2 ap-x @103",
		"connect u3 ap-a @103",
		"connect u1 ap-a @103",
		"disconnect u3 ap-a @104",
		"disconnect u2 ap-x @200",
		"connect u4 ap-b @200",
	}
	plain := run()
	journaled := run(WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff}))
	if !reflect.DeepEqual(plain, want) {
		t.Errorf("unjournaled observer heard:\n%s\nwant:\n%s", strings.Join(plain, "\n"), strings.Join(want, "\n"))
	}
	if !reflect.DeepEqual(journaled, plain) {
		t.Errorf("journaled observer heard:\n%s\nunjournaled:\n%s", strings.Join(journaled, "\n"), strings.Join(plain, "\n"))
	}
}

// TestAssociateBatchLifecyclePinned pins everything one AssociateBatch
// call does beyond returning APs: a batch holding a fresh user, a user
// the decision moves, a user it leaves where they are (a demand
// refresh), a duplicate request and a user the joint decision leaves
// unplaced. Pinned are the observer's event sequence, the journal's
// records (Prev included) and recovery from them; and the
// users the batch places singly fare exactly as under Associate.
func TestAssociateBatchLifecyclePinned(t *testing.T) {
	model, err := society.NewModel([]society.PairStat{
		{Pair: society.MakePair("u-fresh", "u-move"), Prob: 0.9, Supported: true},
		{Pair: society.MakePair("u-fresh", "u-stay"), Prob: 0.8, Supported: true},
		{Pair: society.MakePair("u-move", "u-stay"), Prob: 0.85, Supported: true},
	}, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := core.NewSelector(model, core.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	type world struct {
		c      *Controller
		clock  atomic.Int64
		events eventLog
		dir    string
	}
	jopts := journal.Options{Fsync: journal.FsyncOff, FlushEachAppend: true}
	// Both worlds start alike: four static APs, the first too small to
	// take its resident's demand twice, and one resident on each.
	build := func() *world {
		w := &world{dir: t.TempDir()}
		c, err := NewController(dropFromBatch{s3, "u-left"},
			WithClock(w.clock.Load), WithObserver(&w.events),
			WithJournal(w.dir, jopts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		w.c = c
		for i, capacity := range []float64{150, 1e6, 1e6, 1e6} {
			if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap-%c", 'a'+i)), capacity); err != nil {
				t.Fatal(err)
			}
		}
		w.clock.Store(100)
		for _, u := range []trace.UserID{"u-move", "u-stay", "f-1", "f-2"} {
			if _, err := c.Associate(u, 100); err != nil {
				t.Fatal(err)
			}
		}
		w.clock.Store(200)
		return w
	}

	batch := build()
	got, err := batch.c.AssociateBatch([]wlan.Request{
		{User: "u-fresh", DemandBps: 300},
		{User: "u-move", DemandBps: 100},
		{User: "u-stay", DemandBps: 500},
		{User: "u-left", DemandBps: 50},
		{User: "u-fresh", DemandBps: 40}, // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	wantAPs := map[trace.UserID]trace.APID{"u-fresh": "ap-a", "u-move": "ap-d", "u-stay": "ap-b", "u-left": "ap-a"}
	if !reflect.DeepEqual(got, wantAPs) {
		t.Errorf("AssociateBatch = %v, want %v", got, wantAPs)
	}
	// Events are delivered in mutation order: the joint commit's
	// disconnects, then its connects (none for the refresh), then the two
	// single placements in request order.
	wantEvents := []string{
		"connect u-move ap-a @100",
		"connect u-stay ap-b @100",
		"connect f-1 ap-c @100",
		"connect f-2 ap-d @100",
		"disconnect u-move ap-a @200",
		"connect u-fresh ap-c @200",
		"connect u-move ap-d @200",
		"connect u-left ap-a @200",
		"disconnect u-fresh ap-c @200",
		"connect u-fresh ap-a @200",
	}
	if !reflect.DeepEqual(batch.events.events, wantEvents) {
		t.Errorf("observer events:\n%s\nwant:\n%s",
			strings.Join(batch.events.events, "\n"), strings.Join(wantEvents, "\n"))
	}
	one := func(u trace.UserID, ap, prev trace.APID, demand float64) []journal.Placement {
		return []journal.Placement{{User: u, AP: ap, Prev: prev, DemandBps: demand}}
	}
	wantPlacements := [][]journal.Placement{
		one("u-move", "ap-a", "", 100),
		one("u-stay", "ap-b", "", 100),
		one("f-1", "ap-c", "", 100),
		one("f-2", "ap-d", "", 100),
		{
			{User: "u-fresh", AP: "ap-c", DemandBps: 300},
			{User: "u-move", AP: "ap-d", Prev: "ap-a", DemandBps: 100},
			{User: "u-stay", AP: "ap-b", Prev: "ap-b", DemandBps: 500},
		},
		one("u-left", "ap-a", "", 50),
		one("u-fresh", "ap-a", "ap-c", 40),
	}
	records := func(w *world) []journal.Record {
		t.Helper()
		rec, err := journal.Recover(w.dir)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Records
	}
	recs := records(batch)
	if len(recs) != 4+len(wantPlacements) {
		t.Fatalf("journal holds %d records, want 4 registrations + %d commits: %+v", len(recs), len(wantPlacements), recs)
	}
	for i, want := range wantPlacements {
		r := recs[4+i]
		wantTS := int64(200)
		if i < 4 {
			wantTS = 100
		}
		if r.Op != journal.OpAssoc || r.TS != wantTS || !reflect.DeepEqual(r.Placements, want) {
			t.Errorf("record %d = %+v, want assoc @%d %+v", r.Seq, r, wantTS, want)
		}
	}

	// A crash here (no Close) recovers to the same externally visible state.
	wantSnap := batch.c.Snapshot()
	recovered, err := NewController(dropFromBatch{s3, "u-left"},
		WithClock(batch.clock.Load), WithJournal(batch.dir, jopts))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if sum := recovered.Recovery(); sum == nil || sum.ReplayErrors != 0 {
		t.Fatalf("recovery = %+v", sum)
	}
	if snap := recovered.Snapshot(); !reflect.DeepEqual(snap, wantSnap) {
		t.Errorf("recovered snapshot:\n%+v\nwant:\n%+v", snap, wantSnap)
	}

	// The same schedule with the two leftovers placed by Associate: the
	// batch's single placements are Associate, nothing less.
	single := build()
	joint, err := single.c.AssociateBatch([]wlan.Request{
		{User: "u-fresh", DemandBps: 300},
		{User: "u-move", DemandBps: 100},
		{User: "u-stay", DemandBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wlan.Request{{User: "u-left", DemandBps: 50}, {User: "u-fresh", DemandBps: 40}} {
		ap, err := single.c.Associate(r.User, r.DemandBps)
		if err != nil {
			t.Fatal(err)
		}
		joint[r.User] = ap
	}
	if !reflect.DeepEqual(joint, got) {
		t.Errorf("placed singly: %v, by the batch: %v", joint, got)
	}
	if !reflect.DeepEqual(single.events.events, batch.events.events) {
		t.Errorf("single-call events:\n%s", strings.Join(single.events.events, "\n"))
	}
	if !reflect.DeepEqual(records(single), recs) {
		t.Errorf("single-call journal: %+v", records(single))
	}
	if snap := single.c.Snapshot(); !reflect.DeepEqual(snap, wantSnap) {
		t.Errorf("single-call snapshot:\n%+v\nwant:\n%+v", snap, wantSnap)
	}
}
