package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/s3wlan/s3wlan/internal/obs"
)

// Follow-mode health, exported through the obs registry. Followers are
// the replication consumers of a federated cluster: every record a
// shard owner appends should eventually show up in follow.records on
// each of its followers, and fenced/seq_gaps/corrupt_skipped/undecodable
// should stay zero outside chaos runs.
var (
	obsFollowRecords = obs.GetCounter("journal.follow.records", "Records delivered by follow-mode readers tailing live journals")
	obsFollowResyncs = obs.GetCounter("journal.follow.resyncs", "Follow-mode checkpoint resyncs: a fresh reader's start, or pruning outran the reader's position")
	obsFollowFenced  = obs.GetCounter("journal.follow.fenced", "Follow-mode records dropped for carrying a stale ownership epoch")
	obsFollowGaps    = obs.GetCounter("journal.follow.seq_gaps", "Sequence discontinuities observed while tailing (lost records skipped past)")
	obsFollowCorrupt = obs.GetCounter("journal.follow.corrupt_skipped", "CRC-corrupt frames and damaged headers follow-mode readers skipped past")
	obsFollowUndec   = obs.GetCounter("journal.follow.undecodable", "CRC-valid records follow-mode readers could not decode (a newer writer's layout, or damage the CRC missed)")
)

// FollowStats summarizes one Follower's lifetime accounting.
type FollowStats struct {
	// Records counts records delivered exactly once, in sequence order.
	Records uint64
	// Resyncs counts checkpoint resyncs: a fresh reader's start at the
	// newest checkpoint, or a reader so far behind that pruning removed
	// segments it still needed restarting from it instead.
	Resyncs uint64
	// Fenced counts records dropped because their epoch was below the
	// highest epoch already observed (or below SetMinEpoch) — writes by
	// a superseded owner that lost its lease.
	Fenced uint64
	// SeqGaps counts sequence discontinuities skipped past (records
	// lost to corruption or an unflushed crash; the owner's own
	// recovery tolerates exactly the same losses).
	SeqGaps uint64
	// Corrupt counts CRC-corrupt frames and damaged headers skipped past;
	// each usually shows up as a SeqGap once the next record arrives.
	Corrupt uint64
	// Undecodable counts CRC-valid payloads DecodeRecord refused. A
	// follower older than the owner it tails sees every record this way.
	Undecodable uint64
	// Epoch is the highest record epoch observed in the stream.
	Epoch uint64
	// LastSeq is the sequence number of the last delivered record (or
	// the checkpoint sequence after a resync).
	LastSeq uint64
}

// Follower is the one reader of a journal directory. It tails a journal
// that another process is actively appending to — the replication
// stream of a federated controller — and recovery is its first poll.
// Each Poll delivers every record that became complete on disk since
// the previous Poll, exactly once, in sequence order, across segment
// rotations, checkpoint pruning and torn tails (an incomplete trailing
// frame is simply not ready yet; the next Poll picks it up once the
// writer finishes it).
//
// Exactly-once holds across every Poll that returns nil. When the
// apply callback fails, the reader's position stays at the last
// applied record, so the failing record is redelivered on the next
// Poll (at-least-once across failures).
//
// A Follower is not safe for concurrent use.
type Follower struct {
	dir      string
	lastSeq  uint64
	minEpoch uint64
	stats    FollowStats
	walked   RecoveryStats // what the polls read and skipped, as recovery reports it

	cur map[uint64]cursor // by segment first-seq: the segments still being read
	buf bytes.Buffer      // segment bytes from the cursor on, reused across polls
	rec Record            // the record being delivered, reused across polls
}

// cursor is where the next Poll resumes reading a segment: byte off,
// always the end of a complete frame. It spares re-reading and
// re-decoding what earlier polls walked, and nothing else: lastSeq alone
// decides what is delivered, and whenever the bytes before the cursor
// cannot be shown to be the ones it was set on — a resync, a segment
// recreated and refilled under the reader — reading falls back to
// offset 0. Usually one segment has a cursor; a sealed segment whose
// tail was lost keeps its own until a record of its successor arrives.
type cursor struct {
	off int64
	// The frame ending at off started at prev and its bytes summed to
	// prevSum: re-reading it tells a recreated segment from a grown one.
	prev    int64
	prevSum uint32
}

// NewFollower tails dir, delivering records with Seq > afterSeq. A
// fresh follower that should start from the owner's state, as a restart
// does, passes 0 and a resync callback to Poll.
func NewFollower(dir string, afterSeq uint64) *Follower {
	return &Follower{dir: dir, lastSeq: afterSeq, stats: FollowStats{LastSeq: afterSeq}, cur: make(map[uint64]cursor)}
}

// LastSeq returns the sequence number of the last delivered record.
func (f *Follower) LastSeq() uint64 { return f.lastSeq }

// Stats returns the follower's lifetime accounting.
func (f *Follower) Stats() FollowStats {
	st := f.stats
	st.LastSeq = f.lastSeq
	return st
}

// SetMinEpoch fences out records below epoch e regardless of what the
// stream itself has shown — the caller learned the authoritative
// ownership epoch out of band (from the lease) and any older writer is
// known superseded.
func (f *Follower) SetMinEpoch(e uint64) {
	if e > f.minEpoch {
		f.minEpoch = e
	}
}

// ErrResyncNeeded reports that the reader's position was pruned away
// and no valid checkpoint is available to resync from — the caller
// should retry later (the writer may be mid-checkpoint) or rebuild.
var ErrResyncNeeded = errors.New("journal: follow position pruned and no valid checkpoint to resync from")

// Poll scans the directory once. Records that became complete since
// the last Poll are handed to apply in sequence order. A reader at
// position 0 with a resync callback first hands it the newest valid
// checkpoint, as a restart does, and reads the segments alone if there
// is none. Any other reader resyncs only when pruning removed segments
// it still needed, and a nil resync callback makes that an error. The
// resync must replace the consumer's state wholesale; reading continues
// from the checkpoint's sequence number. Poll returns the number of
// records applied.
func (f *Follower) Poll(resync func(checkpoint []byte, seq uint64) error, apply func(Record) error) (int, error) {
	was := f.stats
	n, err := f.poll(resync, apply)
	obsFollowRecords.Add(int64(f.stats.Records - was.Records))
	obsFollowResyncs.Add(int64(f.stats.Resyncs - was.Resyncs))
	obsFollowFenced.Add(int64(f.stats.Fenced - was.Fenced))
	obsFollowGaps.Add(int64(f.stats.SeqGaps - was.SeqGaps))
	obsFollowCorrupt.Add(int64(f.stats.Corrupt - was.Corrupt))
	obsFollowUndec.Add(int64(f.stats.Undecodable - was.Undecodable))
	return n, err
}

// poll is Poll without publishing to the journal.follow.* counters,
// which count tailing: recovery polls through it.
func (f *Follower) poll(resync func([]byte, uint64) error, apply func(Record) error) (int, error) {
	ckpts, segs, err := listDir(f.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil // owner has not created the journal yet
		}
		return 0, err
	}

	// A fresh reader starts at the newest valid checkpoint, or at the
	// segments if none is valid. Any other resyncs only when pruned past:
	// the oldest surviving segment starting beyond lastSeq+1 means records
	// it never saw are gone, and the pruning invariant guarantees a
	// checkpoint covers them.
	fresh := f.lastSeq == 0 && resync != nil
	if fresh || len(segs) > 0 && segs[0].seq > f.lastSeq+1 {
		if err := f.resyncFromCheckpoint(ckpts, resync); err != nil && !(fresh && err == ErrResyncNeeded) {
			return 0, err
		}
	}

	for seq := range f.cur {
		if len(segs) == 0 || seq < segs[0].seq {
			delete(f.cur, seq) // pruned since the last poll
		}
	}
	applied := 0
	for i, seg := range segs {
		// Skip segments every record of which is already delivered: the
		// next segment's first sequence number bounds this one's last.
		if i+1 < len(segs) && segs[i+1].seq <= f.lastSeq+1 {
			delete(f.cur, seg.seq)
			continue
		}
		data, base, rerr := f.readSegment(seg)
		if rerr != nil {
			// Pruned between listing and reading: the records it held are
			// checkpoint-covered, and the next Poll resyncs if needed.
			// Recovery, which races no pruning, reports it as damage.
			f.walked.CorruptSkipped++
			f.walked.Warnings++
			continue
		}
		res, undecodable, err := replaySegment(data, &f.lastSeq, &f.rec, func(r *Record) error {
			if r.Epoch < f.fenceEpoch() {
				f.stats.Fenced++
				return nil
			}
			gap := r.Seq > f.lastSeq+1
			if err := apply(*r); err != nil {
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
		f.walked.addSegment(res, undecodable)
		// Account for, and move the cursor over, exactly the complete
		// frames the walk got through; damage beyond them is walked (and
		// counted) again once a complete frame follows it.
		f.stats.Corrupt += uint64(res.Corrupt - res.Unsettled)
		f.stats.Undecodable += uint64(undecodable)
		if res.Consumed > 0 {
			f.cur[seg.seq] = cursor{off: base + int64(res.Consumed), prev: base + int64(res.LastFrame),
				prevSum: Checksum(data[res.LastFrame:res.Consumed])}
		}
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// readSegment returns seg's bytes from its cursor on (in f.buf) and the
// file offset they start at. The cursor is honoured only if the frame
// before it is still what it was; otherwise the whole segment is read.
func (f *Follower) readSegment(seg dirEntry) (data []byte, base int64, err error) {
	fh, err := os.Open(filepath.Join(f.dir, seg.name))
	if err != nil {
		return nil, 0, err
	}
	defer fh.Close()
	if cur, ok := f.cur[seg.seq]; ok {
		if err := f.readFrom(fh, cur.prev); err != nil {
			return nil, 0, err
		}
		if b, n := f.buf.Bytes(), int(cur.off-cur.prev); len(b) >= n && Checksum(b[:n]) == cur.prevSum {
			return b[n:], cur.off, nil
		}
		delete(f.cur, seg.seq)
	}
	err = f.readFrom(fh, 0)
	return f.buf.Bytes(), 0, err
}

// readFrom reads fh from off to its current end into f.buf. A whole
// segment, as recovery reads it, is read into a buffer sized from the
// file as os.ReadFile sizes its own, not grown by doubling; for what
// lies past a cursor, the reused buffer has grown with earlier polls.
func (f *Follower) readFrom(fh *os.File, off int64) error {
	f.buf.Reset()
	if off == 0 {
		if size, err := fh.Seek(0, io.SeekEnd); err == nil { // Stat would allocate
			f.buf.Grow(int(size) + bytes.MinRead)
		}
	}
	if _, err := fh.Seek(off, io.SeekStart); err != nil {
		return err
	}
	_, err := f.buf.ReadFrom(fh)
	return err
}

// fenceEpoch is the lowest record epoch still accepted: the larger of
// the externally announced minimum and the highest epoch the stream
// itself has shown.
func (f *Follower) fenceEpoch() uint64 {
	if f.stats.Epoch > f.minEpoch {
		return f.stats.Epoch
	}
	return f.minEpoch
}

// resyncFromCheckpoint restarts the reader from the newest valid
// checkpoint beyond its position, handing its payload to the caller. A
// damaged one is counted and its predecessor tried.
func (f *Follower) resyncFromCheckpoint(ckpts []dirEntry, resync func([]byte, uint64) error) error {
	if resync == nil {
		return ErrResyncNeeded
	}
	for i := len(ckpts) - 1; i >= 0 && ckpts[i].seq > f.lastSeq; i-- { // an older one would regress
		payload, st, err := readCheckpoint(filepath.Join(f.dir, ckpts[i].name))
		f.walked.Resyncs += st.Resyncs
		if err != nil {
			f.walked.CorruptSkipped++
			f.walked.Warnings++
			continue
		}
		if err := resync(payload, ckpts[i].seq); err != nil {
			return fmt.Errorf("journal: resync at %d: %w", ckpts[i].seq, err)
		}
		f.lastSeq = ckpts[i].seq
		f.walked.CheckpointSeq = f.lastSeq
		clear(f.cur)
		f.stats.Resyncs++
		return nil
	}
	return ErrResyncNeeded
}
