package protocol

// Controller durability tests: crash-recovery roundtrips, checkpoint
// restore including the social observer's learned state, a byte-level
// crash-point sweep at the controller layer, and replay-error tolerance.

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestJournalCrashRecoveryRoundtrip drives a journaled controller
// through registrations, associations, a move and a disassociation,
// crashes it (no Close — with FsyncAlways every acknowledged mutation
// is already durable), and verifies a second controller on the same
// directory rebuilds the identical domain. A third, gracefully
// restarted controller must come back from the shutdown checkpoint
// with nothing to replay.
func TestJournalCrashRecoveryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), float64(i+1)*1e6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := a.Associate(trace.UserID(fmt.Sprintf("u-%d", i)), 100); err != nil {
			t.Fatal(err)
		}
	}
	a.disassociate("u-4", nil)
	a.disassociate("u-5", nil)
	if _, err := a.Associate("u-0", 300); err != nil { // a move (or a demand change)
		t.Fatal(err)
	}
	want := a.dom.ExportState(nil)
	wantSnap := a.Snapshot()
	// Crash: controller a is abandoned without Close. Its journal file
	// handle leaks until the test process exits; that is the point.

	b, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	rec := b.Recovery()
	if rec == nil {
		t.Fatal("journaled controller reports no recovery summary")
	}
	if rec.Stats.CheckpointSeq != 0 || rec.Stats.RecordsReplayed == 0 {
		t.Fatalf("crash recovery should be pure replay: %+v", rec.Stats)
	}
	if rec.ReplayErrors != 0 || rec.APs != 3 || rec.Assignments != 4 {
		t.Fatalf("recovery summary = %+v, want 3 APs, 4 assignments, no errors", rec)
	}
	if !reflect.DeepEqual(b.dom.ExportState(nil), want) {
		t.Fatalf("recovered domain diverged\nwant %+v\ngot  %+v", want, b.dom.ExportState(nil))
	}
	if !reflect.DeepEqual(b.Snapshot(), wantSnap) {
		t.Fatalf("recovered snapshot diverged\nwant %+v\ngot  %+v", wantSnap, b.Snapshot())
	}
	// The recovered controller must keep journaling new mutations.
	if _, err := b.Associate("u-7", 50); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // graceful: final checkpoint
		t.Fatal(err)
	}

	c, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec = c.Recovery()
	if rec.Stats.CheckpointSeq == 0 || rec.Stats.RecordsReplayed != 0 {
		t.Fatalf("graceful restart should be pure checkpoint: %+v", rec.Stats)
	}
	if rec.APs != 3 || rec.Assignments != 5 || rec.ReplayErrors != 0 {
		t.Fatalf("post-graceful recovery = %+v, want 3 APs, 5 assignments", rec)
	}
}

// engineSnapshotsMatch compares the published social state of two
// incremental engines layer by layer.
func engineSnapshotsMatch(t *testing.T, tag string, a, b *incremental.Snapshot) {
	t.Helper()
	pairs := func(s *incremental.Snapshot) (ps []society.PairStat) {
		s.Model().EachPair(func(p society.PairStat) { ps = append(ps, p) })
		return ps
	}
	if !reflect.DeepEqual(pairs(a), pairs(b)) {
		t.Fatalf("%s: pair probabilities diverged:\na: %v\nb: %v", tag, pairs(a), pairs(b))
	}
	ag, bg := a.Graph(), b.Graph()
	if ag.NumVertices() != bg.NumVertices() || ag.NumEdges() != bg.NumEdges() {
		t.Fatalf("%s: graph %d/%d vertices, %d/%d edges",
			tag, ag.NumVertices(), bg.NumVertices(), ag.NumEdges(), bg.NumEdges())
	}
	for _, u := range ag.Vertices() {
		for _, v := range ag.Neighbors(u) {
			w, _ := ag.Weight(u, v)
			if bw, ok := bg.Weight(u, v); !ok || bw != w {
				t.Fatalf("%s: edge %s—%s = %v (present %v), want %v", tag, u, v, bw, ok, w)
			}
		}
	}
}

func observerEngineConfig() incremental.Config {
	cfg := incremental.DefaultConfig()
	cfg.RefreshEvents = 0
	cfg.Society.MinEncounters = 1
	cfg.Society.MinEncounterSeconds = 30
	cfg.Society.CoLeaveWindowSeconds = 150
	return cfg
}

// crashedObserverScenario runs a journaled controller whose observer is
// the incremental social engine through two overlapping presences that
// co-leave, twice over — enough for a real θ edge — plus a tail event
// past the last checkpoint boundary, and abandons it without Close. It
// returns the engine, refreshed.
func crashedObserverScenario(t *testing.T, dir string, now func() int64) *incremental.Engine {
	t.Helper()
	engA := incremental.New(observerEngineConfig())
	a, err := NewController(baseline.LLF{},
		WithObserver(engA),
		WithClock(now),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways, CheckpointEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterAP("ap-1", 1e6); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, u := range []trace.UserID{"amy", "ben"} {
			if _, err := a.Associate(u, 100); err != nil {
				t.Fatal(err)
			}
		}
		a.disassociate("amy", nil)
		a.disassociate("ben", nil)
	}
	if _, err := a.Associate("amy", 100); err != nil {
		t.Fatal(err)
	}
	engA.Refresh()
	if engA.Snapshot().Model().NumPairs() == 0 {
		t.Fatal("test vacuous: engine learned no pair statistics")
	}
	return engA
}

// TestJournalCheckpointRestoresObserverState crashes a controller whose
// observer is the incremental social engine, mid-way between
// checkpoints, and verifies the restarted controller's engine publishes
// the identical social state: the checkpoint restored the learner and
// the replayed journal tail re-taught it the rest.
func TestJournalCheckpointRestoresObserverState(t *testing.T) {
	dir := t.TempDir()
	var clk atomic.Int64
	now := func() int64 { return clk.Add(50) }
	engA := crashedObserverScenario(t, dir, now)
	snapA := engA.Snapshot()
	// Crash without Close: recovery must cross a checkpoint + tail.

	engB := incremental.New(observerEngineConfig())
	b, err := NewController(baseline.LLF{},
		WithObserver(engB),
		WithClock(now),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways, CheckpointEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := b.Recovery()
	if rec.Stats.CheckpointSeq == 0 || rec.Stats.RecordsReplayed == 0 {
		t.Fatalf("want checkpoint + tail replay, got %+v", rec.Stats)
	}
	engB.Refresh()
	engineSnapshotsMatch(t, "post-crash", snapA, engB.Snapshot())
	var stateA, stateB bytes.Buffer
	if err := engA.WriteState(&stateA); err != nil {
		t.Fatal(err)
	}
	if err := engB.WriteState(&stateB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateA.Bytes(), stateB.Bytes()) {
		t.Fatalf("the restarted engine's state is not the crashed engine's:\ncrashed   %q\nrestarted %q", stateA.Bytes(), stateB.Bytes())
	}

	// Both engines see the same future → stay identical (the learner's
	// mid-presence state round-tripped through checkpoint + replay).
	ts := clk.Load()
	for _, eng := range []*incremental.Engine{engA, engB} {
		eng.Connect("cat", "ap-1", ts+10)
		if err := eng.Disconnect("amy", "ap-1", ts+60); err != nil {
			t.Fatal(err)
		}
		eng.Refresh()
	}
	engineSnapshotsMatch(t, "post-crash future", engA.Snapshot(), engB.Snapshot())
}

// s3Live is the shipped s3-live wiring: one incremental engine is both
// the S³ selector's social index and (WithObserver) the controller's
// observer.
func s3Live(t *testing.T, cfg incremental.Config) (wlan.Selector, *incremental.Engine) {
	t.Helper()
	eng := incremental.New(cfg)
	sel, err := core.NewSelector(eng, core.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sel, eng
}

// copyJournal copies a testdata journal directory into a fresh temp dir.
func copyJournal(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", name, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata/%s: %v, %v", name, files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestJournalRejectsVersion1Checkpoint: a checkpoint document of a
// version this release does not read — here the JSON document the first
// releases wrote, whose '{' reads as version 123 — fails recovery with
// its number, instead of the controller recovering the domain and
// quietly starting to learn from nothing.
func TestJournalRejectsVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways, State: func(w io.Writer) error {
		_, err := io.WriteString(w, `{"version":1,"domain":{"version":1,"aps":[{"id":"ap-1","capacity_bps":1000000}]}}`+"\n")
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Record{Op: journal.OpRegister, AP: "ap-1", CapacityBps: 1e6, Static: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewController(baseline.LLF{}, WithObserver(incremental.New(observerEngineConfig())),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if want := fmt.Sprintf("document version %d, this release reads %d", '{', checkpointVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery of a version-1 checkpoint = %v, want an error containing %q", err, want)
	}
}

// TestJournalRecoversParentCheckpoint: testdata/journal_v3 is the
// journal directory the scenario of
// TestJournalCheckpointRestoresObserverState leaves behind in the
// current layout (binary records and document), as the release before
// wrote it: the fixture the next format change is held to.
func TestJournalRecoversParentCheckpoint(t *testing.T) {
	t.Run("journal_v3", func(t *testing.T) { recoversFixture(t, "journal_v3") })
}

func recoversFixture(t *testing.T, fixture string) {
	dir := copyJournal(t, fixture)
	eng := incremental.New(observerEngineConfig())
	c, err := NewController(baseline.LLF{}, WithObserver(eng),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways, CheckpointEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recovery()
	if rec.Stats.CheckpointSeq != 8 || rec.Stats.RecordsReplayed != 2 || rec.ReplayErrors != 0 ||
		rec.APs != 1 || rec.Assignments != 1 {
		t.Fatalf("recovery = %+v, want checkpoint 8 + 2 records, 1 AP, 1 assignment", rec)
	}
	eng.Refresh()
	if s := eng.Snapshot(); s.Users != 2 || s.Edges != 1 || s.Index("amy", "ben") != 1 {
		t.Fatalf("recovered social state: %d users, %d edges, θ(amy,ben) = %v; want 2, 1, 1",
			s.Users, s.Edges, s.Index("amy", "ben"))
	}
	// Tallies included: they equal those of an engine that lived through
	// the same scenario.
	var clk atomic.Int64
	lived := crashedObserverScenario(t, t.TempDir(), func() int64 { return clk.Add(50) })
	if !reflect.DeepEqual(eng.Model(), lived.Model()) {
		t.Fatalf("recovered tallies %+v, want %+v", eng.Model(), lived.Model())
	}
	// Amy's presence, open since the replayed tail record, survived too.
	if err := eng.Disconnect("amy", "ap-1", 1000); err != nil {
		t.Fatalf("mid-presence learner state lost: %v", err)
	}
	// And the checkpoint this release writes on Close is one a third
	// controller reads back.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	eng2 := incremental.New(observerEngineConfig())
	c2, err := NewController(baseline.LLF{}, WithObserver(eng2),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways, CheckpointEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rec := c2.Recovery(); rec.Stats.RecordsReplayed != 0 || rec.Assignments != 1 {
		t.Fatalf("restart from the rewritten checkpoint = %+v", rec)
	}
	eng.Refresh()
	engineSnapshotsMatch(t, "rewritten checkpoint", eng.Snapshot(), eng2.Snapshot())
}

// TestServingPathNeverSolvesCliques drives the shipped s3-live wiring —
// journal on, the engine as observer and selector index — through
// several event-count refreshes and checkpoints, and asserts that no
// clique was extracted on the way (core.batch.cliques stays flat): a
// decision reads θ and friend lists, a refresh publishes them, a
// checkpoint serializes tallies. The cover derived from the snapshot's
// graph is still the batch cover.
func TestServingPathNeverSolvesCliques(t *testing.T) {
	cfg := observerEngineConfig()
	cfg.RefreshEvents = 16
	sel, eng := s3Live(t, cfg)
	var clk atomic.Int64
	c, err := NewController(sel, WithObserver(eng),
		WithClock(func() int64 { return clk.Add(20) }),
		WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff, CheckpointEvery: 32}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), 1e6); err != nil {
			t.Fatal(err)
		}
	}
	cliques := obs.GetCounter("core.batch.cliques")
	checkpoints := obs.GetCounter("journal.checkpoints")
	cliques0, checkpoints0, seq0 := cliques.Value(), checkpoints.Value(), eng.Snapshot().Seq

	// Groups of users arrive together and leave together, over and over.
	users := make([]trace.UserID, 12)
	for i := range users {
		users[i] = trace.UserID(fmt.Sprintf("u-%02d", i))
	}
	for round := 0; round < 6; round++ {
		for g := 0; g < len(users); g += 4 {
			group := users[g : g+4]
			for _, u := range group {
				if _, err := c.Associate(u, 100); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range group[:3+round%2] {
				c.disassociate(u, nil)
			}
		}
		for _, u := range users {
			c.disassociate(u, nil) // no-op for those already gone
		}
	}
	if n := eng.Snapshot().Seq - seq0; n < 4 {
		t.Fatalf("only %d auto-refreshes; the test needs at least 4", n)
	}
	if n := checkpoints.Value() - checkpoints0; n < 1 {
		t.Fatalf("%d checkpoints; the test needs at least 1", n)
	}
	if n := cliques.Value() - cliques0; n != 0 {
		t.Fatalf("the serving path extracted %d cliques, want 0", n)
	}

	eng.Refresh()
	snap := eng.Snapshot()
	if snap.Edges == 0 {
		t.Fatal("test vacuous: no θ edge was learned")
	}
	g := socialgraph.FromThreshold(users, eng.FriendThreshold(), eng.Model().Index)
	want := socialgraph.ExtractCliqueCover(g)
	socialgraph.SortCover(want)
	got := socialgraph.ExtractCliqueCover(snap.Graph())
	socialgraph.SortCover(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot cover = %v, batch cover = %v", got, want)
	}
}

// TestControllerCrashPointSweep is the end-to-end durability property:
// truncate the journal of a crashed controller at EVERY byte offset and
// verify the restarted controller reconstructs exactly the mutations
// whose records survived whole — no error, no spurious state, for any
// cut. Under s3-live the journal also holds a checkpoint with the
// engine's binary state, the cuts fall in the segment after it, and the
// recovered engine must equal one taught exactly the surviving events.
func TestControllerCrashPointSweep(t *testing.T) {
	t.Run("llf", func(t *testing.T) { crashPointSweep(t, false) })
	t.Run("s3-live", func(t *testing.T) { crashPointSweep(t, true) })
}

func crashPointSweep(t *testing.T, live bool) {
	opts := journal.Options{Fsync: journal.FsyncAlways}
	if live {
		opts.CheckpointEvery = 6
	}
	var clk atomic.Int64
	open := func(dir string) (*Controller, *incremental.Engine) {
		var sel wlan.Selector = baseline.LLF{}
		var eng *incremental.Engine
		ctlOpts := []ControllerOption{WithJournal(dir, opts),
			WithClock(func() int64 { return clk.Add(50) })}
		if live {
			sel, eng = s3Live(t, observerEngineConfig())
			ctlOpts = append(ctlOpts, WithObserver(eng))
		}
		c, err := NewController(sel, ctlOpts...)
		if err != nil {
			t.Fatal(err)
		}
		return c, eng
	}

	dir := t.TempDir()
	a, _ := open(dir)
	for i := 0; i < 2; i++ {
		if err := a.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), 1e6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Associate(trace.UserID(fmt.Sprintf("u-%d", i)), 100); err != nil {
			t.Fatal(err)
		}
	}
	a.disassociate("u-1", nil)
	if _, err := a.Associate("u-2", 250); err != nil {
		t.Fatal(err)
	}
	a.disassociate("u-0", nil)
	a.disassociate("u-2", nil)
	// Crash. Read back what the run produced: every segment's records,
	// and the byte layout of the last one — the segment the cuts fall in.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	wantSegs := 1
	if live {
		wantSegs = 2
	}
	if err != nil || len(segs) != wantSegs {
		t.Fatalf("segments = %v, %v; want exactly %d", segs, err, wantSegs)
	}
	sort.Strings(segs)
	var records []journal.Record
	var full []byte
	var frameEnd []int // frameEnd[i]: offset in full where its record i ends
	sealed := 0        // records in earlier segments: durable under every cut
	for si, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		st, err := journal.WalkFrames(data, func(off int, p []byte) error {
			var r journal.Record
			if err := journal.DecodeRecord(p, &r); err != nil {
				return err
			}
			records = append(records, r)
			frames++
			if si == len(segs)-1 {
				frameEnd = append(frameEnd, off+journal.FrameHeaderLen+len(p))
			}
			return nil
		})
		if err != nil || st.Corrupt != 0 || st.Torn {
			t.Fatalf("clean journal walks dirty: %v, %+v", err, st)
		}
		if si == len(segs)-1 {
			full = data
		} else {
			sealed += frames
		}
	}
	others, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		committed := sealed
		for _, end := range frameEnd {
			if end <= cut {
				committed++
			}
		}
		// Reference state machine over the committed prefix.
		wantAPs := make(map[trace.APID]bool)
		wantAssign := make(map[trace.UserID]trace.APID)
		ref := incremental.New(observerEngineConfig())
		for _, r := range records[:committed] {
			switch r.Op {
			case journal.OpRegister:
				wantAPs[r.AP] = true
			case journal.OpAssoc:
				for _, p := range r.Placements {
					if prev, ok := wantAssign[p.User]; !ok || prev != p.AP {
						if ok {
							ref.Disconnect(p.User, prev, r.TS)
						}
						ref.Connect(p.User, p.AP, r.TS)
					}
					wantAssign[p.User] = p.AP
				}
			case journal.OpDisassoc:
				ref.Disconnect(r.User, wantAssign[r.User], r.TS)
				delete(wantAssign, r.User)
			}
		}

		cutDir := t.TempDir()
		for _, f := range others {
			data := full[:cut]
			if f != segs[len(segs)-1] {
				if data, err = os.ReadFile(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		b, eng := open(cutDir)
		rec := b.Recovery()
		if rec.ReplayErrors != 0 || rec.Stats.CorruptSkipped != 0 {
			t.Fatalf("cut %d: replay errors %d, corrupt %d on a pure truncation",
				cut, rec.ReplayErrors, rec.Stats.CorruptSkipped)
		}
		if rec.APs != len(wantAPs) || rec.Assignments != len(wantAssign) {
			t.Fatalf("cut %d: recovered %d APs / %d assignments, want %d / %d",
				cut, rec.APs, rec.Assignments, len(wantAPs), len(wantAssign))
		}
		snap := b.Snapshot()
		for ap := range wantAPs {
			if _, ok := snap[ap]; !ok {
				t.Fatalf("cut %d: AP %s missing from recovered snapshot", cut, ap)
			}
		}
		for u, ap := range wantAssign {
			found := false
			for _, su := range snap[ap].Users {
				if su == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("cut %d: user %s not on AP %s: %+v", cut, u, ap, snap)
			}
		}
		if live {
			if rec.Stats.CheckpointSeq == 0 {
				t.Fatalf("cut %d: recovery did not start from the checkpoint: %+v", cut, rec.Stats)
			}
			eng.Refresh()
			ref.Refresh()
			engineSnapshotsMatch(t, fmt.Sprintf("cut %d", cut), ref.Snapshot(), eng.Snapshot())
			if cut == len(full) && eng.Snapshot().Edges == 0 {
				t.Fatal("test vacuous: the full journal teaches no θ edge")
			}
		}
		if err := b.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestControllerCheckpointAmortised bulk-associates 20 000 residents at
// the shipped CheckpointEvery and holds the checkpoints to the WAL: their
// bytes stay within the WAL bytes appended plus the newest checkpoint
// (a checkpoint every 1 024 records rewrote the growing resident table
// for ≈ 6× the WAL). A crash then recovers the identical state, and the
// replayed tail is one the cadence would not yet have checkpointed:
// fewer records than the floor, or fewer bytes than the checkpoint.
func TestControllerCheckpointAmortised(t *testing.T) {
	const every, residents = 1024, 20000
	dir := t.TempDir()
	opts := journal.Options{Fsync: journal.FsyncOff, FlushEachAppend: true, CheckpointEvery: every}
	var clk atomic.Int64
	now := func() int64 { return clk.Add(1) }
	a, err := NewController(baseline.LLF{}, WithClock(now), WithJournal(dir, opts))
	if err != nil {
		t.Fatal(err)
	}
	ckptBytes, appendBytes := obs.GetCounter("journal.checkpoint_bytes"), obs.GetCounter("journal.append_bytes")
	checkpoints := obs.GetCounter("journal.checkpoints")
	ckpt0, append0, n0 := ckptBytes.Value(), appendBytes.Value(), checkpoints.Value()
	for i := 0; i < 16; i++ {
		if err := a.RegisterAP(trace.APID(fmt.Sprintf("ap-%02d", i)), 1e12); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < residents; i++ {
		if _, err := a.Associate(trace.UserID(fmt.Sprintf("u-%05d", i)), 100); err != nil {
			t.Fatal(err)
		}
	}
	wrote, appended, taken := ckptBytes.Value()-ckpt0, appendBytes.Value()-append0, checkpoints.Value()-n0
	if taken < 2 {
		t.Fatalf("%d checkpoints over %d residents; the bound needs at least 2", taken, residents)
	}
	want, wantSnap := a.dom.ExportState(nil), a.Snapshot()
	// Crash: a is abandoned without Close; every record is flushed.

	b, err := NewController(baseline.LLF{}, WithClock(now), WithJournal(dir, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := b.Recovery()
	if rec.ReplayErrors != 0 || rec.Assignments != residents {
		t.Fatalf("recovery = %+v, want %d assignments and no errors", rec, residents)
	}
	if !reflect.DeepEqual(b.dom.ExportState(nil), want) || !reflect.DeepEqual(b.Snapshot(), wantSnap) {
		t.Fatal("recovered state diverged from the pre-crash one")
	}
	// The recovered checkpoint is the newest; the tail is the one segment
	// after it.
	seq := rec.Stats.CheckpointSeq
	newest, err := os.Stat(filepath.Join(dir, fmt.Sprintf("ckpt-%020d.snap", seq)))
	if err != nil {
		t.Fatalf("recovered checkpoint %d: %v", seq, err)
	}
	tail, err := os.Stat(filepath.Join(dir, fmt.Sprintf("seg-%020d.wal", seq+1)))
	if err != nil {
		t.Fatalf("segment after checkpoint %d: %v", seq, err)
	}
	t.Logf("%d checkpoints, %d checkpoint bytes, %d WAL bytes (ratio %.2f); recovery: checkpoint %d of %d bytes, %d records of %d bytes replayed",
		taken, wrote, appended, float64(wrote)/float64(appended), seq, newest.Size(), rec.Stats.RecordsReplayed, tail.Size())
	if wrote > appended+newest.Size() {
		t.Fatalf("checkpoints wrote %d bytes > %d WAL bytes + %d newest", wrote, appended, newest.Size())
	}
	if rec.Stats.RecordsReplayed >= every && tail.Size() >= newest.Size() {
		t.Fatalf("replayed %d records of %d bytes past a %d-byte checkpoint: one was due", rec.Stats.RecordsReplayed, tail.Size(), newest.Size())
	}
}

// TestJournalReplayErrorTolerance hand-crafts a journal whose tail
// references state that never existed (as if the establishing records
// were lost to corruption) and verifies recovery skips and counts those
// records instead of refusing to start.
func TestJournalReplayErrorTolerance(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []journal.Record{
		{Op: journal.OpRegister, AP: "ap-1", CapacityBps: 1e6, Static: true},
		{Op: journal.OpAssoc, Placements: []journal.Placement{{User: "u-1", AP: "ap-1", DemandBps: 10}}},
		{Op: journal.OpAssoc, Placements: []journal.Placement{{User: "u-2", AP: "ap-ghost", DemandBps: 10}}},
		{Op: journal.OpDisassoc, User: "u-ghost", AP: "ap-1"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := c.Recovery()
	if rec.ReplayErrors != 2 {
		t.Fatalf("replay errors = %d, want 2 (ghost AP, ghost user)", rec.ReplayErrors)
	}
	if rec.APs != 1 || rec.Assignments != 1 {
		t.Fatalf("recovery = %+v, want the one valid AP and assignment", rec)
	}
	if _, err := c.Associate("u-3", 10); err != nil {
		t.Fatalf("controller not functional after tolerant recovery: %v", err)
	}
}

// failSelector fails the test it belongs to if any policy decision is
// asked of it.
type failSelector struct{ t *testing.T }

func (failSelector) Name() string { return "fail" }

func (s failSelector) Select(wlan.Request, []wlan.APView) (trace.APID, error) {
	s.t.Error("the policy ran on a demand the door refuses")
	return "", fmt.Errorf("unreachable")
}

// TestLiveRecordErrorNamesItsSubject: a live entry point refuses a
// number the wire's gate would refuse before anything runs, the policy
// included, so its error names the op and the AP or user instead of a
// "journal record 0" no journal holds; journaled or not.
func TestLiveRecordErrorNamesItsSubject(t *testing.T) {
	never := failSelector{t}
	bare, err := NewController(never)
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := NewController(never, WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer journaled.Close()
	for name, c := range map[string]*Controller{"bare": bare, "journaled": journaled} {
		err := c.RegisterAP("ap-x", math.NaN())
		if want := `protocol: register of AP "ap-x": invalid capacity_bps NaN`; err == nil || err.Error() != want {
			t.Errorf("%s: RegisterAP(NaN) = %v, want %q", name, err, want)
		}
		if err := c.RegisterAP("ap-ok", 1e6); err != nil {
			t.Fatal(err)
		}
		_, err = c.Associate("u-x", math.Inf(1))
		if want := `protocol: assoc of user "u-x": invalid demand_bps +Inf`; err == nil || err.Error() != want {
			t.Errorf("%s: Associate(+Inf) = %v, want %q", name, err, want)
		}
	}
}

// TestReplayRefusesNonFiniteNumbers: a record whose capacity or demand
// the wire's gate would refuse — +Inf, NaN, negative — is a replay error
// naming its seq, skipped by recovery and returned to a follower, so no
// such number reaches the domain's loads and LLF compares real ones.
func TestReplayRefusesNonFiniteNumbers(t *testing.T) {
	bad := []journal.Record{
		{Op: journal.OpRegister, AP: "ap-inf", CapacityBps: math.Inf(1), Static: true},
		{Op: journal.OpAssoc, Placements: []journal.Placement{{User: "u-nan", AP: "ap-a", DemandBps: math.NaN()}}},
		{Op: journal.OpAssoc, Placements: []journal.Placement{{User: "u-neg", AP: "ap-b", DemandBps: -5e5}}},
	}
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append([]journal.Record{
		{Op: journal.OpRegister, AP: "ap-a", CapacityBps: 1e6, Static: true},
		{Op: journal.OpRegister, AP: "ap-b", CapacityBps: 1e6, Static: true},
		{Op: journal.OpAssoc, Placements: []journal.Placement{{User: "u-ok", AP: "ap-a", DemandBps: 10}}},
	}, bad...) {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	c, err := NewController(baseline.LLF{}, WithLogger(log.New(&logged, "", 0)),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec := c.Recovery(); rec.ReplayErrors != 3 || rec.APs != 2 || rec.Assignments != 1 {
		t.Fatalf("recovery = %+v, want 3 replay errors, 2 APs, 1 assignment", rec)
	}
	for _, want := range []string{"record 4: invalid capacity_bps +Inf", "record 5: invalid demand_bps NaN", "record 6: invalid demand_bps -500000"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("recovery log lacks %q:\n%s", want, logged.String())
		}
	}
	if ap, err := c.Associate("u-new", 10); err != nil || ap != "ap-b" {
		t.Fatalf("LLF after recovery placed on %q, %v; want ap-b (load 0 against ap-a's 10)", ap, err)
	}

	follower := bareController(t)
	for _, r := range bad {
		if err := follower.ApplyRecord(r); err == nil || !strings.Contains(err.Error(), "invalid") {
			t.Errorf("ApplyRecord(%s %v) = %v, want an invalid-number error", r.Op, r.Placements, err)
		}
	}
}

// TestJournalFsyncFailureStillAcks: a journaled controller whose segment
// fsync fails still acknowledges the association (availability over
// durability, as mutateLocked documents) and counts the failed
// append in journal.append_errors.
func TestJournalFsyncFailureStillAcks(t *testing.T) {
	var degraded atomic.Bool
	c, err := NewController(baseline.LLF{},
		WithJournal(t.TempDir(), journal.Options{
			Fsync: journal.FsyncAlways,
			OpenFile: func(path string) (journal.File, error) {
				f, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				return faults.WrapFile(f, 0, func() faults.FileConfig {
					if degraded.Load() {
						return faults.FileConfig{SyncErrProb: 1}
					}
					return faults.FileConfig{}
				}), nil
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterAP("ap-1", 1e6); err != nil {
		t.Fatal(err)
	}
	appendErrs := obs.GetCounter("journal.append_errors")
	before := appendErrs.Value()
	degraded.Store(true)
	ap, err := c.Associate("u-1", 100)
	degraded.Store(false)
	if err != nil || ap != "ap-1" {
		t.Fatalf("associate over a failing fsync = %q, %v; want an ack for ap-1", ap, err)
	}
	if got := appendErrs.Value() - before; got != 1 {
		t.Fatalf("journal.append_errors rose by %d, want 1", got)
	}
	if users := c.Snapshot()["ap-1"].Users; len(users) != 1 {
		t.Fatalf("ap-1 holds %d users after the ack, want 1", len(users))
	}
}
