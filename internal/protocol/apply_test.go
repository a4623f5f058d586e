package protocol

// One mutation path: a live controller, a follower fed its journal
// through ApplyRecord and a controller recovered from that journal after
// a crash change state through the same apply, so all three must agree —
// on the observer's events, the domain, the session table and the lease
// clocks — after every step of any schedule.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestRecoveryReplaysBatchMoveOrder: one AssociateBatch moves two users.
// Live, the observer hears both disconnects, then both connects; a
// controller recovered from the journal and a follower fed it through
// ApplyRecord must hear exactly that sequence, not each user's
// disconnect and connect in turn.
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
	if _, err := owner.AssociateBatch([]wlan.Request{{User: "u1", DemandBps: 100}, {User: "u2", DemandBps: 100}}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"connect u1 ap-a @100",
		"connect u2 ap-a @100",
		"disconnect u1 ap-a @200",
		"disconnect u2 ap-a @200",
		"connect u1 ap-b @200",
		"connect u2 ap-b @200",
	}
	if !reflect.DeepEqual(live.events, want) {
		t.Fatalf("live observer heard:\n%s\nwant:\n%s", strings.Join(live.events, "\n"), strings.Join(want, "\n"))
	}
	// Crash: owner is abandoned without Close; every record is flushed.

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
// the views, and on the first view otherwise; its joint decision leaves
// the users in left unplaced.
type schedPolicy struct {
	route map[trace.UserID]trace.APID
	left  map[trace.UserID]bool
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

func (p schedPolicy) SelectBatch(reqs []wlan.Request, aps []wlan.APView) (map[trace.UserID]trace.APID, error) {
	out := make(map[trace.UserID]trace.APID, len(reqs))
	for _, r := range reqs {
		if !p.left[r.User] {
			out[r.User], _ = p.Select(r, aps)
		}
	}
	return out, nil
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

// lease is the part of an AP's metadata its journal records carry.
type lease struct {
	static   bool
	lastSeen int64
	gen      uint64
}

// applied is everything apply changes, as comparable values.
type applied struct {
	Domain   domain.State
	Sessions map[trace.UserID]session
	Leases   map[trace.APID]lease
	Events   []string
}

func appliedOf(c *Controller, events *stateLog) applied {
	st := applied{
		Domain:   *c.dom.ExportState(nil),
		Sessions: make(map[trace.UserID]session, len(c.sessions)),
		Leases:   make(map[trace.APID]lease, len(c.meta)),
		Events:   events.events,
	}
	for u, s := range c.sessions {
		st.Sessions[u] = s
	}
	for id, m := range c.meta {
		st.Leases[id] = lease{m.static, m.lastSeen, m.gen}
	}
	return st
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
// refreshes among them), batches with duplicate and unplaced users,
// disassociations, and clock jumps that expire leases — on a journaled
// owner. After every step a follower polls the owner's journal into
// ApplyRecord, a controller is recovered from a copy of it as after a
// crash, and both must equal the owner. One schedule in eight
// checkpoints, so recovery also starts from a checkpoint. The schedules
// run in two halves side by side.
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
	const lease = 10
	var clock atomic.Int64
	clock.Store(1000)
	pol := schedPolicy{route: map[trace.UserID]trace.APID{}, left: map[trace.UserID]bool{}}
	open := func(events *stateLog, opts ...ControllerOption) *Controller {
		c, err := NewController(pol, append(opts, WithClock(clock.Load), WithLease(lease), WithObserver(events))...)
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
		switch op := rng.Intn(10); {
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
		case op <= 7:
			reqs := make([]wlan.Request, 2+rng.Intn(4))
			clear(pol.left)
			for k := range reqs {
				reqs[k] = wlan.Request{User: pick(), DemandBps: float64(50 * (1 + rng.Intn(4)))}
				pol.route[reqs[k].User] = aps[rng.Intn(len(aps))]
				if rng.Intn(4) == 0 {
					pol.left[reqs[k].User] = true
				}
			}
			step(fmt.Sprintf("batch %v", reqs), func() error {
				_, err := owner.AssociateBatch(reqs)
				return err
			})
		case op == 8:
			u := pick()
			step("disassoc "+string(u), func() error {
				owner.disassociate(u, nil)
				return nil
			})
		default:
			jump := int64(rng.Intn(2 * lease))
			step(fmt.Sprintf("jump %d", jump), func() error {
				clock.Add(jump)
				owner.Snapshot() // sweeps lapsed leases
				return nil
			})
		}

		want := appliedOf(owner, &ownerEvents)
		if _, err := f.Poll(func([]byte, uint64) error {
			return fmt.Errorf("follower fell behind a checkpoint")
		}, follower.ApplyRecord); err != nil {
			t.Fatalf("seed %d: follow: %v", seed, err)
		}
		if got := appliedOf(follower, &followerEvents); !reflect.DeepEqual(got, want) {
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
			rec, err := journal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			recovered = open(&recoveredEvents)
			if rec.Checkpoint != nil {
				if err := recovered.RestoreCheckpoint(rec.Checkpoint); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range rec.Records {
				if err := recovered.ApplyRecord(r); err != nil {
					t.Fatalf("seed %d: replay %+v: %v", seed, r, err)
				}
			}
		}
		if got := appliedOf(recovered, &recoveredEvents); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: recovered controller diverged after\n%s\ngot  %+v\nwant %+v", seed, strings.Join(script, "\n"), got, want)
		}
	}
}
