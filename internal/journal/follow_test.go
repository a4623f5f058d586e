package journal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// followCollector gathers what a Follower delivers: applied records and
// any checkpoint resyncs.
type followCollector struct {
	recs    []Record
	ckpts   []uint64 // resync checkpoint seqs, in order
	ckptDoc []byte   // last resync payload
}

func (c *followCollector) resync(payload []byte, seq uint64) error {
	c.ckpts = append(c.ckpts, seq)
	c.ckptDoc = append([]byte(nil), payload...)
	return nil
}

func (c *followCollector) apply(r Record) error {
	// The record's placements are the follower's to reuse after the call.
	if r.Placements = slices.Clone(r.Placements); len(r.Placements) == 0 {
		r.Placements = nil
	}
	c.recs = append(c.recs, r)
	return nil
}

// assertExactlyOnce fails unless the collected records are exactly the
// contiguous sequence (from, from+1, ..., to].
func assertExactlyOnce(t *testing.T, recs []Record, from, to uint64) {
	t.Helper()
	want := to - from
	if uint64(len(recs)) != want {
		t.Fatalf("delivered %d records, want %d (seqs %d..%d]", len(recs), want, from, to)
	}
	for i, r := range recs {
		if r.Seq != from+uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, from+uint64(i)+1)
		}
	}
}

// coverageCollector enforces the replication-stream delivery contract
// as events arrive: every sequence number is covered exactly once —
// either by a record applied in strict order, or wholesale by a resync
// checkpoint that replaces all state up to its sequence. No duplicate,
// no gap, ever.
type coverageCollector struct {
	t       *testing.T
	covered uint64 // highest seq covered so far
	applied uint64 // records delivered (not via checkpoint)
	resyncs int
}

func (c *coverageCollector) resync(payload []byte, seq uint64) error {
	c.t.Helper()
	if seq <= c.covered {
		c.t.Fatalf("resync to checkpoint %d behind covered position %d", seq, c.covered)
	}
	var doc struct {
		Applied uint64 `json:"applied"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		c.t.Fatalf("resync payload %q: %v", payload, err)
	}
	if doc.Applied != seq {
		c.t.Fatalf("checkpoint at seq %d carries state for %d appends", seq, doc.Applied)
	}
	c.covered = seq
	c.resyncs++
	return nil
}

func (c *coverageCollector) apply(r Record) error {
	c.t.Helper()
	if r.Seq != c.covered+1 {
		c.t.Fatalf("record seq %d delivered at covered position %d (duplicate or gap)", r.Seq, c.covered)
	}
	c.covered = r.Seq
	c.applied++
	return nil
}

// TestFollowExactlyOnceLive is the replication-stream property test: a
// follower polling a live leader at random cadence observes every
// sequence number exactly once — applied in strict order, or subsumed
// wholesale by a checkpoint resync when pruning outran it — across
// segment rotations and checkpoint pruning. Swept over seeds so poll
// points land on every phase of the rotation cycle.
func TestFollowExactlyOnceLive(t *testing.T) {
	const n = 120
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			st := &checkpointState{}
			j, _, err := Open(dir, Options{
				Fsync:           FsyncOff,
				FlushEachAppend: true,
				CheckpointEvery: 7,
				State:           st.write,
				Epoch:           1,
			})
			if err != nil {
				t.Fatal(err)
			}
			f := NewFollower(dir, 0)
			col := &coverageCollector{t: t}
			rng := rand.New(rand.NewSource(seed))
			next := 1 + rng.Intn(9)
			for i := 0; i < n; i++ {
				st.n++
				if err := j.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
				if i+1 == next {
					if _, err := f.Poll(col.resync, col.apply); err != nil {
						t.Fatalf("poll after %d appends: %v", i+1, err)
					}
					next += 1 + rng.Intn(9)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Poll(col.resync, col.apply); err != nil {
				t.Fatal(err)
			}
			if col.covered != n {
				t.Fatalf("covered up to seq %d, want %d", col.covered, n)
			}
			s := f.Stats()
			if s.Records != col.applied || int(s.Resyncs) != col.resyncs {
				t.Fatalf("stats %+v disagree with collector (applied %d, resyncs %d)", s, col.applied, col.resyncs)
			}
			if s.Fenced != 0 || s.SeqGaps != 0 || s.Epoch != 1 || s.LastSeq != n {
				t.Fatalf("stats %+v", s)
			}
		})
	}
}

// TestFollowKeptUpNeverResyncs pins the no-lag guarantee: a follower
// polling after every append stays ahead of pruning and sees every
// record itself, with zero checkpoint resyncs.
func TestFollowKeptUpNeverResyncs(t *testing.T) {
	dir := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(dir, Options{
		Fsync:           FsyncOff,
		FlushEachAppend: true,
		CheckpointEvery: 5,
		State:           st.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	f := NewFollower(dir, 0)
	col := &followCollector{}
	for i := 0; i < n; i++ {
		st.n++
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Poll(col.resync, col.apply); err != nil {
			t.Fatalf("poll after append %d: %v", i+1, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(col.ckpts) != 0 {
		t.Fatalf("kept-up follower resynced at %v", col.ckpts)
	}
	assertExactlyOnce(t, col.recs, 0, n)
}

// TestFollowCrashPointSweep reuses the PR 5 crash-point harness shape
// for the follow-mode reader: the leader's segment bytes are revealed
// to the follower one prefix at a time — every byte cut, including
// mid-header and mid-payload — and each record must be delivered
// exactly once, at precisely the first cut where its frame is complete
// (every earlier cut inside the frame is a torn tail the follower must
// wait out, never a duplicate or a skip).
func TestFollowCrashPointSweep(t *testing.T) {
	src := t.TempDir()
	j, _, err := Open(src, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full := firstSegment(t, src)
	frameEnd := make([]int, n+1)
	for k, fr := range cleanFrames(t, full, n) {
		frameEnd[k+1] = fr.end()
	}

	dir := t.TempDir()
	seg := segmentPath(dir, 1)
	f := NewFollower(dir, 0)
	col := &followCollector{}
	delivered := 0
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		applied, err := f.Poll(col.resync, col.apply)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		delivered += applied
		wantRecords := 0
		for wantRecords < n && frameEnd[wantRecords+1] <= cut {
			wantRecords++
		}
		if delivered != wantRecords {
			t.Fatalf("cut %d: %d records delivered, want %d", cut, delivered, wantRecords)
		}
	}
	assertExactlyOnce(t, col.recs, 0, n)
}

// TestFollowLaggedResync starts a follower against a journal whose
// early segments are already pruned: the first poll must resync from
// the newest checkpoint and deliver only the tail beyond it.
func TestFollowLaggedResync(t *testing.T) {
	dir := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(dir, Options{
		Fsync:           FsyncOff,
		FlushEachAppend: true,
		CheckpointEvery: 5,
		State:           st.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 23 // checkpoints at 5,10,15,20; retention keeps 15 and 20,
	// and segments covered by 15 are pruned — a fresh follower cannot
	// reach seq 1 from segments alone.
	for i := 0; i < n; i++ {
		st.n++
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f := NewFollower(dir, 0)
	col := &followCollector{}
	if _, err := f.Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	if len(col.ckpts) != 1 {
		t.Fatalf("resyncs %v, want exactly one", col.ckpts)
	}
	ckptSeq := col.ckpts[0]
	var doc struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(col.ckptDoc, &doc); err != nil {
		t.Fatalf("resync payload %q: %v", col.ckptDoc, err)
	}
	if uint64(doc.Applied) != ckptSeq {
		t.Fatalf("checkpoint payload says %d applied, seq is %d", doc.Applied, ckptSeq)
	}
	assertExactlyOnce(t, col.recs, ckptSeq, n)
	if s := f.Stats(); s.Resyncs != 1 || s.LastSeq != n {
		t.Fatalf("stats %+v", s)
	}

	// A follower without a resync callback must refuse, not skip.
	bare := NewFollower(dir, 0)
	if _, err := bare.Poll(nil, col.apply); err == nil {
		t.Fatal("poll without resync callback succeeded past pruned records")
	}
}

// TestFollowEpochFencing proves a superseded owner's records are
// dropped once the follower knows a higher ownership epoch — the
// cross-process analogue of the in-process registration generations.
func TestFollowEpochFencing(t *testing.T) {
	dir := t.TempDir()
	j1, _, err := Open(dir, Options{Fsync: FsyncOff, FlushEachAppend: true, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j1.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The follower learns epoch 2 from the lease before the takeover
	// owner writes anything: epoch-1 records already delivered stay
	// delivered, but any epoch-1 record arriving after the fence is
	// dropped.
	f := NewFollower(dir, 0)
	col := &followCollector{}
	if _, err := f.Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, col.recs, 0, 4)

	// Zombie: a writer still at epoch 1 appends two more records...
	z, _, err := Open(dir, Options{Fsync: FsyncOff, FlushEachAppend: true, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.SetMinEpoch(2)
	for i := 4; i < 6; i++ {
		if err := z.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Poll(col.resync, col.apply); err != nil || n != 0 {
		t.Fatalf("poll applied %d zombie records (err %v), want 0", n, err)
	}
	if s := f.Stats(); s.Fenced != 2 {
		t.Fatalf("fenced %d records, want 2 (stats %+v)", s.Fenced, s)
	}

	// ...and the legitimate epoch-2 owner continues from seq 4.
	j2, _, err := Open(dir, Options{Fsync: FsyncOff, FlushEachAppend: true, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The zombie's records were recovered by Open (they are valid
	// frames), so the new owner's seq continues beyond them; the
	// follower skips the fenced seqs as a counted gap.
	if err := j2.Append(testRecord(6)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	before := len(col.recs)
	if _, err := f.Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	if len(col.recs) != before+1 {
		t.Fatalf("delivered %d records after epoch-2 append, want 1", len(col.recs)-before)
	}
	last := col.recs[len(col.recs)-1]
	if last.Epoch != 2 {
		t.Fatalf("last record epoch %d, want 2", last.Epoch)
	}
	if s := f.Stats(); s.SeqGaps == 0 {
		t.Fatalf("fenced-out seqs not accounted as a gap (stats %+v)", s)
	}
}

// TestRecoverWarningAndResyncStats asserts the satellite contract:
// tolerated-corruption warnings and magic-scan resyncs are surfaced as
// RecoveryStats fields (and, via Open, the journal.recover.* counters)
// instead of living only in log lines.
func TestRecoverWarningAndResyncStats(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the first frame's magic: the decoder loses framing and must
	// magic-scan to the second frame — one corrupt skip, one resync.
	data[0] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, recs, err := recoverRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.Resyncs == 0 {
		t.Fatalf("no resyncs counted (stats %+v)", rec.Stats)
	}
	if rec.Stats.Warnings == 0 {
		t.Fatalf("no warnings counted (stats %+v)", rec.Stats)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5 (first frame destroyed)", len(recs))
	}

	// Open must surface the same stats through the obs counters.
	warnsBefore, resyncsBefore := obsRecWarns.Value(), obsRecResyncs.Value()
	j2, rec2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := obsRecWarns.Value() - warnsBefore; got != int64(rec2.Stats.Warnings) || got == 0 {
		t.Fatalf("journal.recover.warnings moved by %d, stats say %d", got, rec2.Stats.Warnings)
	}
	if got := obsRecResyncs.Value() - resyncsBefore; got != int64(rec2.Stats.Resyncs) || got == 0 {
		t.Fatalf("journal.recover.resyncs moved by %d, stats say %d", got, rec2.Stats.Resyncs)
	}
}

// TestOpenLeavesFollowCountersAlone: recovery is a follower's first poll,
// but the journal.follow.* counters count tailing: opening a journal
// over a checkpoint and a tail moves the recovery counters only.
func TestOpenLeavesFollowCountersAlone(t *testing.T) {
	dir := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(dir, Options{Fsync: FsyncOff, CheckpointEvery: 5, State: st.write})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		st.n++
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	records, resyncs, replayed := obsFollowRecords.Value(), obsFollowResyncs.Value(), obsReplayed.Value()
	col := &followCollector{}
	j, rec, err := Open(dir, Options{Fsync: FsyncOff, Restore: col.resync, Replay: col.apply})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec.Stats.CheckpointSeq != 5 || len(col.ckpts) != 1 {
		t.Fatalf("recovered from checkpoints %v, stats %+v; want the one at 5", col.ckpts, rec.Stats)
	}
	assertExactlyOnce(t, col.recs, 5, 7)
	if got := obsReplayed.Value() - replayed; got != 2 {
		t.Fatalf("journal.recovery.records_replayed moved by %d, want 2", got)
	}
	if r, s := obsFollowRecords.Value()-records, obsFollowResyncs.Value()-resyncs; r != 0 || s != 0 {
		t.Fatalf("Open moved journal.follow.records by %d and journal.follow.resyncs by %d, want 0", r, s)
	}
}
