package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// refFollower is the oracle the cursor follower is checked against: a
// follower which re-reads every live segment from offset 0 on every poll
// and relies on Seq ≤ lastSeq alone. At position 0 with a resync
// callback it starts at the newest valid checkpoint, as recovery does. Damage
// is counted once, like the cursor follower counts it, by remembering
// per segment the bytes already accounted for: while they are still a
// prefix of the file only the growth in the account is added, and a
// segment whose accounted bytes changed (recreated under the reader) is
// accounted from scratch.
type refFollower struct {
	dir     string
	lastSeq uint64
	stats   FollowStats
	seen    map[uint64]refSeen
}

type refSeen struct {
	prefix               []byte // the segment up to the last complete frame walked
	corrupt, undecodable int
}

func (f *refFollower) poll(resync func([]byte, uint64) error, apply func(Record) error) (int, error) {
	ckpts, segs, err := listDir(f.dir)
	if err != nil {
		return 0, err
	}
	if fresh := f.lastSeq == 0 && resync != nil; fresh || len(segs) > 0 && segs[0].seq > f.lastSeq+1 {
		resynced := false
		for i := len(ckpts) - 1; i >= 0 && ckpts[i].seq > f.lastSeq && !resynced; i-- {
			payload, _, err := readCheckpoint(filepath.Join(f.dir, ckpts[i].name))
			if err != nil {
				continue
			}
			if err := resync(payload, ckpts[i].seq); err != nil {
				return 0, err
			}
			f.lastSeq, resynced = ckpts[i].seq, true
			f.stats.Resyncs++
		}
		if !resynced && !fresh {
			return 0, ErrResyncNeeded
		}
	}
	applied := 0
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].seq <= f.lastSeq+1 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(f.dir, seg.name))
		if err != nil {
			continue
		}
		undecodable := 0
		st, err := WalkFrames(data, func(_ int, payload []byte) error {
			var r Record
			if DecodeRecord(payload, &r) != nil {
				undecodable++
				return nil
			}
			if r.Seq <= f.lastSeq {
				return nil
			}
			gap := r.Seq > f.lastSeq+1
			if err := apply(r); err != nil {
				return fmt.Errorf("journal: apply record %d: %w", r.Seq, err)
			}
			if gap {
				f.stats.SeqGaps++
			}
			f.lastSeq = r.Seq
			f.stats.Epoch = max(f.stats.Epoch, r.Epoch)
			f.stats.Records++
			applied++
			return nil
		})
		old := f.seen[seg.seq]
		if !bytes.HasPrefix(data, old.prefix) {
			old = refSeen{}
		}
		now := refSeen{prefix: bytes.Clone(data[:st.Consumed]), corrupt: st.Corrupt - st.Unsettled, undecodable: undecodable}
		f.stats.Corrupt += uint64(now.corrupt - old.corrupt)
		f.stats.Undecodable += uint64(now.undecodable - old.undecodable)
		f.seen[seg.seq] = now
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// heldFile is a segment file whose writes reach the disk only when the
// test says so: what the journal wrote sits in held until released, a
// prefix at a time, possibly with a bit flipped on the way. Close
// releases the rest, as sealing a segment does.
type heldFile struct {
	f    *os.File
	held []byte
}

func (h *heldFile) Write(p []byte) (int, error) {
	h.held = append(h.held, p...)
	return len(p), nil
}

func (h *heldFile) release(n int) error {
	_, err := h.f.Write(h.held[:n])
	h.held = h.held[n:]
	return err
}

func (h *heldFile) Sync() error { return nil }

func (h *heldFile) Close() error {
	if err := h.release(len(h.held)); err != nil {
		return err
	}
	return h.f.Close()
}

// delivery is everything a follower handed its consumer, in order.
type delivery struct {
	events  []string // "r <record>" and "c <checkpoint seq>"
	applies int
	failAt  int // the apply call that fails (at-least-once redelivery), or -1
}

func (d *delivery) resync(payload []byte, seq uint64) error {
	d.events = append(d.events, fmt.Sprintf("c %d %s", seq, payload))
	return nil
}

func (d *delivery) apply(r Record) error {
	if d.applies++; d.applies-1 == d.failAt {
		return errors.New("consumer refused")
	}
	d.events = append(d.events, fmt.Sprintf("r %+v", r))
	return nil
}

// TestFollowCursorMatchesRereadOracle is the differential test of the
// byte cursor: over seeded schedules of append, flush, partial write,
// bit flip, forced checkpoint (rotation and pruning with it), clean
// reopen, crash and poll — some polls with a consumer that refuses a
// record — the cursor follower and the re-read-everything oracle
// deliver identical event sequences and end every poll with identical
// FollowStats.
//
// Bits are flipped only in bytes not yet on disk. Damage that appears
// behind the cursor later is invisible to the cursor follower by design
// (it already delivered what those bytes said), while the oracle would
// re-walk it — and a flipped length there can stall the oracle on a
// phantom torn tail for the rest of the segment.
func TestFollowCursorMatchesRereadOracle(t *testing.T) {
	var total FollowStats
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		state := &checkpointState{}
		var active *heldFile
		opts := Options{Fsync: FsyncOff, FlushEachAppend: true, Epoch: 1, State: state.write,
			OpenFile: func(path string) (File, error) {
				f, err := os.Create(path)
				active = &heldFile{f: f}
				return active, err
			}}
		open := func() *Journal {
			j, _, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			state.n = int(j.Seq())
			return j
		}
		j := open()
		cur, ref := NewFollower(dir, 0), &refFollower{dir: dir, seen: map[uint64]refSeen{}}
		got, want := &delivery{}, &delivery{}
		poll := func(step int) {
			got.failAt, want.failAt = -1, -1
			if rng.Intn(6) == 0 {
				k := rng.Intn(3)
				got.failAt, want.failAt = got.applies+k, want.applies+k
			}
			gn, gerr := cur.Poll(got.resync, got.apply)
			wn, werr := ref.poll(want.resync, want.apply)
			if gn != wn || (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d step %d: cursor poll = %d, %v; oracle = %d, %v", seed, step, gn, gerr, wn, werr)
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Fatalf("seed %d step %d: deliveries diverge\ncursor %q\noracle %q", seed, step, got.events, want.events)
			}
			ref.stats.LastSeq = ref.lastSeq
			if gs := cur.Stats(); gs != ref.stats {
				t.Fatalf("seed %d step %d: stats diverge\ncursor %+v\noracle %+v", seed, step, gs, ref.stats)
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 45: // append
				state.n++
				if err := j.Append(testRecord(rng.Intn(1000))); err != nil {
					t.Fatal(err)
				}
			case op < 55: // flush
				if err := active.release(len(active.held)); err != nil {
					t.Fatal(err)
				}
			case op < 65: // partial write
				if err := active.release(rng.Intn(len(active.held) + 1)); err != nil {
					t.Fatal(err)
				}
			case op < 70: // bit flip in flight
				if n := len(active.held); n > 0 {
					active.held[rng.Intn(n)] ^= 1 << rng.Intn(8)
				}
			case op < 76: // checkpoint: seal, rotate, prune
				if err := j.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			case op < 79: // clean restart
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				j = open()
			case op < 82: // crash: what was not released is lost
				active.f.Close()
				j = open()
			default:
				poll(step)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		poll(-1)
		poll(-1) // a refused record is redelivered by the very next poll
		if len(got.events) == 0 {
			t.Fatalf("seed %d: nothing delivered", seed)
		}
		st := cur.Stats()
		total.Records += st.Records
		total.Resyncs += st.Resyncs
		total.SeqGaps += st.SeqGaps
		total.Corrupt += st.Corrupt
		total.Undecodable += st.Undecodable
	}
	if total.Resyncs == 0 || total.SeqGaps == 0 || total.Corrupt == 0 {
		t.Fatalf("schedules never exercised a resync, a gap or a corrupt frame: %+v", total)
	}
	t.Logf("over all seeds: %+v", total)
}

// TestFollowSegmentRecreatedUnderReader: an owner crashes leaving only
// damaged frames in its newest segment; the follower walks past them
// (CRC-bad, plausible length: skipped whole). Recovery finds nothing
// valid in that segment, so the next owner creates the very same file
// name again — truncating it — and fills it with new records. An offset
// trusted blindly would resume in the middle of the new file and lose
// its first records; the cursor must notice and start over.
func TestFollowSegmentRecreatedUnderReader(t *testing.T) {
	dir := t.TempDir()
	appendN := func(from, n int) {
		t.Helper()
		j, _, err := Open(dir, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < from+n; i++ {
			if err := j.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(0, 3) // seg-1: 1..3
	appendN(3, 2) // seg-4: 4, 5 — about to be damaged
	doomed := segmentPath(dir, 4)
	data, err := os.ReadFile(doomed)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range cleanFrames(t, data, 2) {
		data[fr.off+FrameHeaderLen] ^= 0xFF
	}
	if err := os.WriteFile(doomed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	f := NewFollower(dir, 0)
	col := &followCollector{}
	if _, err := f.Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, col.recs, 0, 3)
	if st := f.Stats(); st.Corrupt != 2 {
		t.Fatalf("walked past %d corrupt frames, want 2 (stats %+v)", st.Corrupt, st)
	}
	if f.cur[4].off != int64(len(data)) {
		t.Fatalf("test vacuous: cursor %+v did not move over the damaged frames of seg-4 (%d bytes)", f.cur, len(data))
	}

	appendN(13, 4) // recovery ends at 3: seg-4 again, now 4..7, longer than before
	if fi, err := os.Stat(doomed); err != nil || fi.Size() <= f.cur[4].off {
		t.Fatalf("test vacuous: recreated seg-4 is %v bytes, cursor at %d (%v)", fi.Size(), f.cur[4].off, err)
	}
	if _, err := f.Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, col.recs, 0, 7)
	if st := f.Stats(); st.SeqGaps != 0 {
		t.Fatalf("records of the recreated segment were skipped: %+v", st)
	}
}

// TestFollowUndecodableCounted: a CRC-valid record in a layout this
// reader does not know — what an old follower sees of a newer owner —
// is skipped, counted, and shows up as a gap once a readable record
// follows.
func TestFollowUndecodableCounted(t *testing.T) {
	dir := t.TempDir()
	seg := recordFrame(t, Record{Seq: 1, Op: OpRegister, AP: "ap-0"})
	seg = AppendFrame(seg, []byte{recordVersion + 1, 2, 0, 2})
	seg = append(seg, recordFrame(t, Record{Seq: 3, Op: OpRegister, AP: "ap-1"})...)
	if err := os.WriteFile(segmentPath(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(dir, 0)
	col := &followCollector{}
	for i := 0; i < 2; i++ { // the second poll finds nothing new to count
		if _, err := f.Poll(col.resync, col.apply); err != nil {
			t.Fatal(err)
		}
	}
	before := obsFollowUndec.Value()
	if st := f.Stats(); st.Undecodable != 1 || st.SeqGaps != 1 || st.Records != 2 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want 1 undecodable, 1 gap, 2 records", st)
	}
	if _, err := NewFollower(dir, 0).Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	if got := obsFollowUndec.Value() - before; got != 1 {
		t.Fatalf("journal.follow.undecodable moved by %d, want 1", got)
	}
}

// TestFollowAcrossLayoutChange tails a directory whose first segment is
// in a layout this release no longer reads — the JSON records of an
// earlier release — and which this release then wrote on: the old
// records are counted undecodable by follower and recovery alike, never
// delivered or guessed at, and every record written since is delivered
// once, in order.
func TestFollowAcrossLayoutChange(t *testing.T) {
	dir := t.TempDir()
	var old []byte
	for i := 0; i < 5; i++ {
		r := testRecord(i)
		r.Seq, r.Epoch = uint64(i+1), 1
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		old = AppendFrame(old, b)
	}
	if err := os.WriteFile(segmentPath(dir, 1), old, 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(dir, 0)
	col := &followCollector{}
	if n, err := f.Poll(col.resync, col.apply); err != nil || n != 0 || f.Stats().Undecodable != 5 {
		t.Fatalf("poll over a JSON segment = %d, %v, stats %+v; want nothing delivered, 5 undecodable", n, err, f.Stats())
	}

	recovered := &followCollector{}
	j, rec, err := Open(dir, Options{Fsync: FsyncOff, FlushEachAppend: true, Epoch: 1, Replay: recovered.apply})
	if err != nil || len(recovered.recs) != 0 || rec.Stats.Warnings != 5 {
		t.Fatalf("open over the old segment: %v, %d records, stats %+v; want none recovered, 5 warnings", err, len(recovered.recs), rec.Stats)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := f.Poll(col.resync, col.apply); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Poll(col.resync, col.apply); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, col.recs, 0, 4)
	for i, r := range col.recs {
		want := testRecord(i)
		want.Seq, want.Epoch = uint64(i+1), 1
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want)
		}
	}
	if st := f.Stats(); st.Undecodable != 5 || st.Corrupt != 0 || st.SeqGaps != 0 {
		t.Fatalf("stats %+v", st)
	}
}
