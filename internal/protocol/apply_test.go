package protocol

// One mutation path: a live controller, a follower fed its journal
// through ApplyRecord and a controller recovered from that journal after
// a crash change state through the same apply, so all three must agree —
// on the observer's events, the domain, the session table and the AP
// registrations — after every step of any schedule.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestRecoveryReplaysBatchMoveOrder: two associations move two users,
// each journaled as one placement with its previous AP in Prev. Live,
// the observer hears each move's disconnect, then its connect; a
// controller recovered from the journal and a follower fed it through
// ApplyRecord must hear exactly that sequence.
func TestRecoveryReplaysBatchMoveOrder(t *testing.T) {
	dir := t.TempDir()
	route := routeTable{"u1": "ap-a", "u2": "ap-a"}
	var (
		clock atomic.Int64
		live  eventLog
	)
	clock.Store(100)
	jopts := journal.Options{Fsync: journal.FsyncOff, FlushEachAppend: true}
	owner, err := NewController(route, WithClock(clock.Load), WithObserver(&live), WithJournal(dir, jopts))
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range []trace.APID{"ap-a", "ap-b"} {
		if err := owner.RegisterAP(ap, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []trace.UserID{"u1", "u2"} {
		if _, err := owner.Associate(u, 100); err != nil {
			t.Fatal(err)
		}
	}
	clock.Store(200)
	route["u1"], route["u2"] = "ap-b", "ap-b"
	for _, u := range []trace.UserID{"u1", "u2"} {
		if _, err := owner.Associate(u, 100); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"connect u1 ap-a @100",
		"connect u2 ap-a @100",
		"disconnect u1 ap-a @200",
		"connect u1 ap-b @200",
		"disconnect u2 ap-a @200",
		"connect u2 ap-b @200",
	}
	if !reflect.DeepEqual(live.events, want) {
		t.Fatalf("live observer heard:\n%s\nwant:\n%s", strings.Join(live.events, "\n"), strings.Join(want, "\n"))
	}
	// Crash: owner is abandoned without Close; every record is flushed.
	var moves [][]journal.Placement
	if _, err := journal.NewFollower(dir, 0).Poll(nil, func(r journal.Record) error {
		if r.Seq > 4 { // the decoder reuses a record's placements
			moves = append(moves, slices.Clone(r.Placements))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantMoves := [][]journal.Placement{
		{{User: "u1", AP: "ap-b", Prev: "ap-a", DemandBps: 100}},
		{{User: "u2", AP: "ap-b", Prev: "ap-a", DemandBps: 100}},
	}
	if !reflect.DeepEqual(moves, wantMoves) {
		t.Fatalf("journaled moves = %+v, want %+v", moves, wantMoves)
	}

	var follower eventLog
	standby, err := NewController(route, WithObserver(&follower))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.NewFollower(dir, 0).Poll(nil, standby.ApplyRecord); err != nil {
		t.Fatal(err)
	}
	var recovered eventLog
	c, err := NewController(route, WithObserver(&recovered), WithJournal(dir, jopts))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, got := range map[string][]string{"recovered": recovered.events, "follower": follower.events} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s observer heard:\n%s\nwant the live sequence:\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// schedPolicy places each user where route says when that AP is among
// the views, and on the first view otherwise.
type schedPolicy struct {
	route map[trace.UserID]trace.APID
}

func (schedPolicy) Name() string { return "sched" }

func (p schedPolicy) Select(req wlan.Request, aps []wlan.APView) (trace.APID, error) {
	for _, v := range aps {
		if v.ID == p.route[req.User] {
			return v.ID, nil
		}
	}
	return aps[0].ID, nil
}

// stateLog is an eventLog that checkpoints itself, so a controller
// recovered from a checkpoint and the records after it has heard the
// whole history too.
type stateLog struct{ eventLog }

func (l *stateLog) WriteState(w io.Writer) error {
	_, err := io.WriteString(w, strings.Join(l.events, "\n"))
	return err
}

func (l *stateLog) ReadState(r io.Reader) error {
	b, err := io.ReadAll(r)
	l.events = strings.Split(string(b), "\n")
	return err
}

// registration is the part of an AP's metadata its journal records
// carry.
type registration struct {
	static bool
	gen    uint64
}

// applied is everything apply changes, as comparable values.
type applied struct {
	Domain   domain.State
	Sessions map[trace.UserID]session
	APs      map[trace.APID]registration
	Events   []string
}

func appliedOf(c *Controller, events *stateLog) applied {
	st := applied{
		Domain:   *c.dom.ExportState(nil),
		Sessions: make(map[trace.UserID]session, len(c.sessions)),
		APs:      make(map[trace.APID]registration, len(c.meta)),
		Events:   events.events,
	}
	for u, s := range c.sessions {
		st.Sessions[u] = s
	}
	for id, m := range c.meta {
		st.APs[id] = registration{m.static, m.gen}
	}
	return st
}

// membershipErr checks the session table against the domain: every
// session's user is a member of exactly its AP, and every AP member has
// a session.
func (st *applied) membershipErr() error {
	memberOf := make(map[trace.UserID][]trace.APID)
	for _, ap := range st.Domain.APs {
		for _, u := range ap.Users {
			memberOf[u] = append(memberOf[u], ap.ID)
		}
	}
	for u, aps := range memberOf {
		if s, ok := st.Sessions[u]; !ok || len(aps) != 1 || aps[0] != s.ap {
			return fmt.Errorf("%s is a member of %v, its session is %+v (found %v)", u, aps, s, ok)
		}
	}
	for u, s := range st.Sessions {
		if len(memberOf[u]) == 0 {
			return fmt.Errorf("%s has a session on %s and is a member of no AP", u, s.ap)
		}
	}
	return nil
}

// emptyDir removes the files in dir, which must exist.
func emptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// copyDir replaces the files in dst with copies of those in src.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	emptyDir(t, dst)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayParityGeneratedSchedules runs seeded schedules — static and
// agent registrations, agent renewals, associations (moves and same-AP
// refreshes among them) and disassociations — on a journaled owner.
// After every step a follower polls the owner's journal into
// ApplyRecord, a controller is recovered from a copy of it as after a
// crash, and both must equal the owner; on all three, every session's
// user is a member of exactly its AP and every AP member has a session.
// One schedule in eight checkpoints, so recovery also starts from a
// checkpoint. The schedules run in two halves side by side.
func TestReplayParityGeneratedSchedules(t *testing.T) {
	schedules := 1000
	if testing.Short() {
		schedules = 100
	}
	ckpts := obs.GetCounter("journal.checkpoints")
	before := ckpts.Value()
	t.Run("halves", func(t *testing.T) {
		for half := int64(0); half < 2; half++ {
			t.Run(fmt.Sprint(half), func(t *testing.T) {
				t.Parallel()
				dir, crashDir := t.TempDir(), t.TempDir()
				for seed := 1 + half; seed <= int64(schedules); seed += 2 {
					runSchedule(t, seed, dir, crashDir)
				}
			})
		}
	})
	if ckpts.Value() == before {
		t.Error("no schedule checkpointed: recovery from a checkpoint went untested")
	}
}

// runSchedule runs the schedule seed generates, its owner journaling in
// dir and its crash copies in crashDir (both existing directories).
func runSchedule(t *testing.T, seed int64, dir, crashDir string) {
	rng := rand.New(rand.NewSource(seed))
	emptyDir(t, dir)
	jopts := journal.Options{Fsync: journal.FsyncOff, FlushEachAppend: true}
	if seed%8 == 0 {
		jopts.CheckpointEvery = 4
	}
	var clock atomic.Int64
	clock.Store(1000)
	pol := schedPolicy{route: map[trace.UserID]trace.APID{}}
	open := func(events *stateLog, opts ...ControllerOption) *Controller {
		c, err := NewController(pol, append(opts, WithClock(clock.Load), WithObserver(events))...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var ownerEvents, followerEvents stateLog
	owner := open(&ownerEvents, WithJournal(dir, jopts))
	defer owner.DetachJournal()
	follower := open(&followerEvents)
	f := journal.NewFollower(dir, 0)

	aps := []trace.APID{"ap-s0", "ap-g0", "ap-g1", "ap-g2", "ap-s1"}
	users := []trace.UserID{"u0", "u1", "u2", "u3", "u4", "u5"}
	pick := func() trace.UserID { return users[rng.Intn(len(users))] }
	var script []string
	step := func(what string, f func() error) {
		t.Helper()
		script = append(script, fmt.Sprintf("@%d %s", clock.Load(), what))
		if err := f(); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, strings.Join(script, "; "), err)
		}
	}
	step("register ap-s0", func() error { return owner.RegisterAP("ap-s0", 1e6) })

	for i, n := 0, 8+rng.Intn(12); i < n; i++ {
		clock.Add(int64(1 + rng.Intn(3)))
		switch op := rng.Intn(7); {
		case op == 0:
			step("register ap-s1", func() error {
				if _, ok := owner.meta["ap-s1"]; ok {
					return nil
				}
				return owner.RegisterAP("ap-s1", 5e5)
			})
		case op <= 2:
			id := aps[1+rng.Intn(3)]
			capacity := float64(1+rng.Intn(3)) * 1e6
			step("agent "+string(id), func() error {
				_, _, err := owner.registerAgent(nil, id, capacity)
				return err
			})
		case op <= 5:
			u, ap := pick(), aps[rng.Intn(len(aps))]
			if rng.Intn(3) == 0 { // a same-AP refresh, where u has an AP
				ap = owner.sessions[u].ap
			}
			demand := float64(50 * (1 + rng.Intn(4)))
			step(fmt.Sprintf("assoc %s -> %s", u, ap), func() error {
				pol.route[u] = ap
				_, err := owner.Associate(u, demand)
				return err
			})
		default:
			u := pick()
			step("disassoc "+string(u), func() error {
				owner.disassociate(u, nil)
				return nil
			})
		}

		want := appliedOf(owner, &ownerEvents)
		if err := want.membershipErr(); err != nil {
			t.Fatalf("seed %d: owner after\n%s\n%v", seed, strings.Join(script, "\n"), err)
		}
		if _, err := f.Poll(func([]byte, uint64) error {
			return fmt.Errorf("follower fell behind a checkpoint")
		}, follower.ApplyRecord); err != nil {
			t.Fatalf("seed %d: follow: %v", seed, err)
		}
		got := appliedOf(follower, &followerEvents)
		if err := got.membershipErr(); err != nil {
			t.Fatalf("seed %d: follower after\n%s\n%v", seed, strings.Join(script, "\n"), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: follower diverged after\n%s\ngot  %+v\nwant %+v", seed, strings.Join(script, "\n"), got, want)
		}
		// A crash now: recover what the journal holds into a fresh
		// controller — its newest checkpoint, then every record after it.
		// The last step restarts through WithJournal itself, from a copy.
		var recoveredEvents stateLog
		var recovered *Controller
		if i == n-1 {
			copyDir(t, dir, crashDir)
			recovered = open(&recoveredEvents, WithJournal(crashDir, jopts))
			defer recovered.DetachJournal()
			if sum := recovered.Recovery(); sum.ReplayErrors != 0 {
				t.Fatalf("seed %d: %d replay errors after\n%s", seed, sum.ReplayErrors, strings.Join(script, "\n"))
			}
		} else {
			// Recovery is a fresh follower's first poll.
			recovered = open(&recoveredEvents)
			if _, err := journal.NewFollower(dir, 0).Poll(func(payload []byte, _ uint64) error {
				return recovered.RestoreCheckpoint(payload)
			}, func(r journal.Record) error {
				if err := recovered.ApplyRecord(r); err != nil {
					t.Fatalf("seed %d: replay %+v: %v", seed, r, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		got = appliedOf(recovered, &recoveredEvents)
		if err := got.membershipErr(); err != nil {
			t.Fatalf("seed %d: recovered controller after\n%s\n%v", seed, strings.Join(script, "\n"), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: recovered controller diverged after\n%s\ngot  %+v\nwant %+v", seed, strings.Join(script, "\n"), got, want)
		}
	}
}

// writeJournal appends recs to a fresh journal in dir and closes it.
func writeJournal(t *testing.T, dir string, recs ...journal.Record) {
	t.Helper()
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayParentRecords: an assoc record of two placements, as an
// earlier release's joint batch decision wrote it, is refused naming its
// count, on recovery and on a follower alike; recovery counts it as a
// replay error and goes on with the records around it.
func TestReplayParentRecords(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		journal.Record{Op: journal.OpRegister, TS: 100, AP: "ap-s", CapacityBps: 1e6, Static: true},
		journal.Record{Op: journal.OpRegister, TS: 100, AP: "ap-x", CapacityBps: 1e6},
		journal.Record{Op: journal.OpAssoc, TS: 101, Placements: []journal.Placement{{User: "u1", AP: "ap-x", DemandBps: 100}}},
		journal.Record{Op: journal.OpAssoc, TS: 102, Placements: []journal.Placement{{User: "u2", AP: "ap-s"}, {User: "u3", AP: "ap-s"}}})
	want := []string{"connect u1 ap-x @101"}

	var followed eventLog
	follower, err := NewController(routeTable{}, WithObserver(&followed))
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	if _, err := journal.NewFollower(dir, 0).Poll(nil, func(r journal.Record) error {
		if err := follower.ApplyRecord(r); err != nil {
			errs = append(errs, err.Error())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if wantErrs := []string{"protocol: assoc record with 2 placements, want 1"}; !reflect.DeepEqual(errs, wantErrs) {
		t.Errorf("follower errors = %q, want %q", errs, wantErrs)
	}

	var recoveredEvents eventLog
	recovered, err := NewController(routeTable{}, WithObserver(&recoveredEvents),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if sum := recovered.Recovery(); sum.ReplayErrors != 1 || sum.APs != 2 || sum.Assignments != 1 {
		t.Errorf("recovery = %+v, want 1 replay error, two APs, u1 assigned", sum)
	}
	for name, c := range map[string]*Controller{"follower": follower, "recovered": recovered} {
		if snap := c.Snapshot(); len(snap) != 2 || len(snap["ap-s"].Users) != 0 || !reflect.DeepEqual(snap["ap-x"].Users, []trace.UserID{"u1"}) {
			t.Errorf("%s: snapshot %+v, want an empty ap-s and u1 on ap-x", name, snap)
		}
	}
	for name, got := range map[string][]string{"follower": followed.events, "recovered": recoveredEvents.events} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s observer heard %q, want %q", name, got, want)
		}
	}
}

// TestReplayRefusesExpire: no release since AP leases were removed
// writes an AP lease expiry, and none replays one. A journal holding one
// fails recovery with an error naming the op, the record's seq and the
// releases that wrote it, instead of being counted as a skipped replay
// error; a follower's ApplyRecord refuses it alike.
func TestReplayRefusesExpire(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		journal.Record{Op: journal.OpRegister, TS: 100, AP: "ap-x", CapacityBps: 1e6},
		journal.Record{Op: journal.OpAssoc, TS: 101, Placements: []journal.Placement{{User: "u1", AP: "ap-x", DemandBps: 100}}},
		journal.Record{Op: journal.OpExpire, TS: 200, AP: "ap-x"})
	const want = "protocol: journal record 3 (expire): AP lease expiry is not replayed: " +
		"only a release from before AP leases were removed wrote it"
	c, err := NewController(routeTable{}, WithJournal(dir, journal.Options{Fsync: journal.FsyncOff}))
	if err == nil {
		c.Close()
		t.Fatalf("recovery over an expire record succeeded: %+v", c.Recovery())
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("recovery error = %q, want it to contain %q", err, want)
	}
	follower, err := NewController(routeTable{})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyRecord(journal.Record{Seq: 3, Op: journal.OpExpire, AP: "ap-x"}); err == nil || err.Error() != want {
		t.Errorf("follower ApplyRecord = %v, want %q", err, want)
	}
}
