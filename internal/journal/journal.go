package journal

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/atomicfile"
	"github.com/s3wlan/s3wlan/internal/obs"
)

// Journal health, exported through the obs registry (surfaced by the
// s3 proto health output alongside the protocol.* and domain.* families).
var (
	obsAppends     = obs.GetCounter("journal.appends", "WAL records appended (one per journaled domain mutation)")
	obsAppendBytes = obs.GetCounter("journal.append_bytes", "Framed bytes appended to WAL segments")
	obsAppendErrs  = obs.GetCounter("journal.append_errors", "Failed appends: encode, write or fsync errors")
	obsFsyncs      = obs.GetCounter("journal.fsyncs", "Segment fsyncs (per append under FsyncAlways, per tick under FsyncInterval)")
	obsFsync       = obs.GetHistogram("journal.fsync", "Latency of one segment flush+fsync")
	obsCheckpoints = obs.GetCounter("journal.checkpoints", "Checkpoints written (every CheckpointEvery records, and not before the log since the last checkpoint outweighs it; plus forced ones)")
	obsCkptErrs    = obs.GetCounter("journal.checkpoint_errors", "Failed checkpoints (compaction degrades, correctness unaffected)")
	obsCkptHist    = obs.GetHistogram("journal.checkpoint", "Latency of one checkpoint write + segment rotation")
	obsCkptState   = obs.GetHistogram("journal.checkpoint_state", "Latency of a checkpoint's Options.State call: serialising the owner's state, part of journal.checkpoint")
	obsCkptBytes   = obs.GetCounter("journal.checkpoint_bytes", "Checkpoint payload bytes written (owner state, before framing)")
	obsRotations   = obs.GetCounter("journal.rotations", "Segment rotations (one per successful checkpoint)")
	obsReplayed    = obs.GetCounter("journal.recovery.records_replayed", "Records replayed from the WAL tail at recovery")
	obsCorrupt     = obs.GetCounter("journal.recovery.corrupt_skipped", "CRC-corrupt or undecodable frames skipped at recovery")
	obsTorn        = obs.GetCounter("journal.recovery.torn_tails", "Incomplete trailing frames found at recovery (≤1 per segment)")
	obsRecWarns    = obs.GetCounter("journal.recover.warnings", "Tolerated-corruption warnings emitted during recovery (unreadable or damaged checkpoints, unreadable segments, undecodable records)")
	obsRecResyncs  = obs.GetCounter("journal.recover.resyncs", "Magic-scan re-synchronizations after lost framing during recovery")
	obsSeq         = obs.GetGauge("journal.seq", "Last assigned WAL sequence number")
)

// syncDir fsyncs the journal directory, making the entries of a
// segment just created and of a checkpoint just renamed durable. A
// package-level seam so tests can order it against segment fsyncs.
var syncDir = (*os.File).Sync

// FsyncPolicy selects when appended frames are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: no acknowledged record is
	// ever lost, at the cost of one disk flush per commit.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background tick every fsyncPeriod: a
	// crash loses at most the last period's records.
	FsyncInterval
	// FsyncOff never fsyncs explicitly; the OS flushes at its leisure. A
	// process crash (without an OS crash) still loses nothing once the
	// bytes are written, since the page cache survives the process.
	FsyncOff
)

// fsyncPeriod is the background flush period under FsyncInterval.
const fsyncPeriod = 100 * time.Millisecond

// ParseFsyncPolicy maps the CLI spelling (always / interval / off) to a
// policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or off)", s)
}

// String returns the CLI spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return "always"
}

// File is the subset of *os.File the journal writes segments through.
// Options.OpenFile may substitute a fault-injecting implementation
// (tests use internal/faults).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Journal.
type Options struct {
	// Fsync selects the durability/throughput trade-off (default
	// FsyncAlways).
	Fsync FsyncPolicy
	// CheckpointEvery checkpoints + rotates every this many records, and
	// not before the log since the last checkpoint outweighs it; 0: never.
	CheckpointEvery int
	// State, when non-nil, writes the owner's full state snapshot for a
	// checkpoint. It is invoked synchronously from Append, so it observes
	// exactly the state as of the record that triggered the checkpoint.
	// w is the *bytes.Buffer the checkpoint frame is built in: an owner
	// that encodes into its AvailableBuffer() and passes the result to
	// Write has written in place.
	State func(w io.Writer) error
	// Restore and Replay, when set, are handed what Open recovers: Open
	// is the first Poll of a Follower at position 0, and these are its
	// resync and apply callbacks. Restore gets the newest valid
	// checkpoint, Replay every record beyond it, valid only during the
	// call. An error from either fails Open.
	Restore func(checkpoint []byte, seq uint64) error
	Replay  func(Record) error
	// OpenFile creates segment files (default os.Create). Tests inject
	// fault-wrapped files here.
	OpenFile func(path string) (File, error)
	// Logger receives recovery warnings and background-flush errors
	// (default: discard).
	Logger *log.Logger
	// Epoch stamps every appended record with the writer's ownership
	// generation (see Record.Epoch). Zero for single-owner journals.
	Epoch uint64
	// FlushEachAppend flushes the buffered writer after every append
	// even when the fsync policy would not. A replicated journal needs
	// it under FsyncInterval/FsyncOff so tailing followers see records
	// as soon as they are written, not when the 4 KiB buffer happens to
	// spill. FsyncAlways flushes regardless.
	FlushEachAppend bool
}

// Journal is an open write-ahead log rooted at one directory.
type Journal struct {
	dir  string
	opts Options

	mu                  sync.Mutex
	dirf                *os.File // the open directory, fsynced after each segment it gains
	f                   File
	bw                  *bufio.Writer
	frame               bytes.Buffer // the record or checkpoint frame being built, reused
	seq                 uint64       // last assigned sequence number
	sinceCkpt, walSince int          // records, and their framed bytes, since the last checkpoint
	ckptBytes           int          // the newest checkpoint's framed bytes (a bare header before the first)
	closed              bool

	stopFlush chan struct{}
	flushDone chan struct{}
}

// RecoveryStats summarizes what Recover (or Open) found.
type RecoveryStats struct {
	// CheckpointSeq is the sequence number of the loaded checkpoint
	// (0 = no checkpoint).
	CheckpointSeq uint64
	// RecordsReplayed counts journal-tail records returned for replay, and
	// LastSeq is the last one's sequence number (the checkpoint's if none).
	RecordsReplayed int
	LastSeq         uint64
	// CorruptSkipped counts CRC-corrupt or unparsable frames skipped.
	CorruptSkipped int
	// TornTails counts incomplete trailing frames (≤1 per segment).
	TornTails int
	// Segments counts journal segments read (not those a checkpoint
	// wholly covers).
	Segments int
	// Warnings counts the tolerated-corruption warnings recovery logged:
	// unreadable or damaged checkpoints, unreadable segments, and
	// undecodable records. Surfaced as journal.recover.warnings.
	Warnings int
	// Resyncs counts magic-scan re-synchronizations after lost framing
	// (a damaged header or length). Surfaced as journal.recover.resyncs.
	Resyncs int
}

// Recovery is what Open found: the newest valid checkpoint payload (nil
// when none) and the account of the read. The records beyond the
// checkpoint went to Options.Replay.
type Recovery struct {
	Checkpoint []byte
	Stats      RecoveryStats
}

// Open recovers the journal in dir (creating it if absent) and opens a
// fresh segment for appending. Appending always starts in a new segment
// so a torn tail left by a crash is never extended in place.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.OpenFile == nil {
		opts.OpenFile = func(path string) (File, error) { return os.Create(path) }
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: mkdir %s: %w", dir, err)
	}
	rec, err := recoverDir(dir, opts.Logger, opts.Restore, opts.Replay)
	if err != nil {
		return nil, nil, err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open dir %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opts: opts, dirf: dirf, bw: bufio.NewWriter(nil), seq: rec.Stats.LastSeq,
		ckptBytes: FrameHeaderLen + len(rec.Checkpoint)}
	if err := j.openSegmentLocked(j.seq + 1); err != nil {
		j.Close()
		return nil, nil, err
	}
	if opts.Fsync == FsyncInterval {
		j.stopFlush = make(chan struct{})
		j.flushDone = make(chan struct{})
		go j.flushLoop()
	}
	obsReplayed.Add(int64(rec.Stats.RecordsReplayed))
	obsCorrupt.Add(int64(rec.Stats.CorruptSkipped))
	obsTorn.Add(int64(rec.Stats.TornTails))
	obsRecWarns.Add(int64(rec.Stats.Warnings))
	obsRecResyncs.Add(int64(rec.Stats.Resyncs))
	obsSeq.Set(int64(j.seq))
	return j, rec, nil
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Append assigns the next sequence number to rec, frames and writes it,
// applies the fsync policy, and checkpoints + rotates when due (see
// Options.CheckpointEvery). The caller's record is not retained.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append after close")
	}
	rec.Seq = j.seq + 1
	rec.Epoch = j.opts.Epoch
	j.frame.Reset()
	frame, err := AppendRecord(BeginFrame(j.frame.AvailableBuffer()), &rec)
	if err != nil {
		obsAppendErrs.Inc()
		return err
	}
	j.frame.Write(frame) // in place; keeps the grown buffer for the next record
	j.seq = rec.Seq
	SealFrame(frame)
	if _, err := j.bw.Write(frame); err != nil {
		obsAppendErrs.Inc()
		return fmt.Errorf("journal: append record %d: %w", rec.Seq, err)
	}
	if j.opts.Fsync == FsyncAlways {
		if err := j.syncLocked(); err != nil {
			obsAppendErrs.Inc()
			return fmt.Errorf("journal: fsync record %d: %w", rec.Seq, err)
		}
	} else if j.opts.FlushEachAppend {
		if err := j.bw.Flush(); err != nil {
			obsAppendErrs.Inc()
			return fmt.Errorf("journal: flush record %d: %w", rec.Seq, err)
		}
	}
	obsAppends.Inc()
	obsAppendBytes.Add(int64(len(frame)))
	obsSeq.Set(int64(j.seq))

	j.sinceCkpt++
	j.walSince += len(frame)
	if j.opts.CheckpointEvery > 0 && j.opts.State != nil &&
		j.sinceCkpt >= j.opts.CheckpointEvery && j.walSince >= j.ckptBytes {
		if err := j.checkpointLocked(); err != nil {
			// A failed checkpoint degrades compaction, not correctness:
			// the tail simply stays longer. Count and carry on.
			obsCkptErrs.Inc()
			j.opts.Logger.Printf("journal: checkpoint at seq %d failed: %v", j.seq, err)
		}
	}
	return nil
}

// Checkpoint forces a checkpoint + rotation now (e.g. on graceful
// shutdown of a long-idle controller). No-op without a State callback.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: checkpoint after close")
	}
	if j.opts.State == nil {
		return nil
	}
	return j.checkpointLocked()
}

// Close flushes, fsyncs and closes the active segment and the directory.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	stop := j.stopFlush
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.flushDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.f != nil { // nil when Open failed to create the first segment
		err = errors.Join(j.bw.Flush(), j.f.Sync(), j.f.Close())
	}
	err = errors.Join(err, j.dirf.Close())
	j.f, j.bw = nil, nil
	return err
}

// syncLocked flushes the buffered writer and fsyncs the segment.
func (j *Journal) syncLocked() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	obsFsyncs.Inc()
	obsFsync.Observe(time.Since(start))
	return nil
}

// flushLoop is the FsyncInterval background flusher.
func (j *Journal) flushLoop() {
	defer close(j.flushDone)
	tick := time.NewTicker(fsyncPeriod)
	defer tick.Stop()
	for {
		select {
		case <-j.stopFlush:
			return
		case <-tick.C:
			j.mu.Lock()
			if !j.closed && j.f != nil {
				if err := j.syncLocked(); err != nil {
					j.opts.Logger.Printf("journal: background fsync: %v", err)
				}
			}
			j.mu.Unlock()
		}
	}
}

// openSegmentLocked starts a fresh segment whose first record will carry
// firstSeq, and fsyncs the directory so the segment's entry (and a
// checkpoint renamed just before) survives a power loss.
func (j *Journal) openSegmentLocked(firstSeq uint64) error {
	f, err := j.opts.OpenFile(segmentPath(j.dir, firstSeq))
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.bw.Reset(f)
	if err := syncDir(j.dirf); err != nil {
		return fmt.Errorf("journal: sync dir %s: %w", j.dir, err)
	}
	return nil
}

// checkpointLocked writes the owner's state as ckpt-<seq>.snap, rotates
// to a fresh segment and prunes segments/checkpoints superseded by the
// two newest checkpoints (the second-newest is kept as the fallback for
// a damaged newest).
func (j *Journal) checkpointLocked() error {
	start := time.Now()
	seq := j.seq
	j.sinceCkpt, j.walSince = 0, 0 // forced, automatic, failed or not
	j.frame.Reset()
	j.frame.Write(BeginFrame(j.frame.AvailableBuffer()))
	if err := j.opts.State(&j.frame); err != nil {
		return fmt.Errorf("journal: checkpoint state: %w", err)
	}
	obsCkptState.Observe(time.Since(start))
	SealFrame(j.frame.Bytes())
	err := atomicfile.WriteFile(checkpointPath(j.dir, seq), func(w io.Writer) error {
		_, err := w.Write(j.frame.Bytes())
		return err
	})
	if err != nil {
		return err
	}
	obsCkptBytes.Add(int64(j.frame.Len() - FrameHeaderLen))
	// Rotate: seal the current segment, start the next one.
	if err := j.bw.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := j.openSegmentLocked(seq + 1); err != nil {
		return err
	}
	j.ckptBytes = j.frame.Len() // only a checkpoint that succeeds moves the size to outweigh
	obsRotations.Inc()
	obsCheckpoints.Inc()
	obsCkptHist.Observe(time.Since(start))
	j.pruneLocked()
	return nil
}

// pruneLocked deletes checkpoints older than the newest two, and
// segments whose every record is covered by the oldest retained
// checkpoint. Pruning is best-effort; failures only delay reclamation.
func (j *Journal) pruneLocked() {
	ckpts, segs, err := listDir(j.dir)
	if err != nil {
		j.opts.Logger.Printf("journal: prune: %v", err)
		return
	}
	if len(ckpts) > 2 {
		for _, c := range ckpts[:len(ckpts)-2] {
			os.Remove(filepath.Join(j.dir, c.name))
		}
		ckpts = ckpts[len(ckpts)-2:]
	}
	// Segment pruning waits for the second checkpoint: pruning against
	// the newest one would delete the segment holding the very record
	// that triggered it before a follow-mode reader (follow.go) could
	// tail it, forcing a full checkpoint resync every rotation. Bounding
	// by the second-newest checkpoint gives followers one whole
	// checkpoint interval of slack at the cost of one interval of disk.
	if len(ckpts) < 2 {
		return
	}
	keepFrom := ckpts[0].seq // oldest retained checkpoint
	// A segment is redundant when the next segment starts at or before
	// keepFrom+1 — i.e. every record it holds has seq ≤ keepFrom. The
	// active (last) segment is never pruned.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= keepFrom+1 {
			os.Remove(filepath.Join(j.dir, segs[i].name))
		}
	}
}

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%020d.wal", firstSeq))
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%020d.snap", seq))
}

// dirEntry is one parsed journal file name.
type dirEntry struct {
	name string
	seq  uint64
}

// listDir returns the checkpoints and segments in dir, each sorted by
// ascending sequence number. Unrelated files are ignored.
func listDir(dir string) (ckpts, segs []dirEntry, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: read dir %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".snap"):
			if seq, perr := strconv.ParseUint(name[5:len(name)-5], 10, 64); perr == nil {
				ckpts = append(ckpts, dirEntry{name: name, seq: seq})
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if seq, perr := strconv.ParseUint(name[4:len(name)-4], 10, 64); perr == nil {
				segs = append(segs, dirEntry{name: name, seq: seq})
			}
		}
	}
	bySeq := func(a, b dirEntry) int { return cmp.Compare(a.seq, b.seq) }
	slices.SortFunc(ckpts, bySeq)
	slices.SortFunc(segs, bySeq)
	return ckpts, segs, nil
}

// Recover reads the journal in dir as Open does, without opening it for
// appending, and hands back what it found. It serves inspection tooling.
func Recover(dir string) (*Recovery, error) {
	return recoverDir(dir, log.New(io.Discard, "", 0), nil, nil)
}

// readCheckpoint loads the one frame a checkpoint file holds. Anything
// but exactly one clean frame is damage: the caller tries an older one.
func readCheckpoint(path string) (payload []byte, st FrameStats, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, st, err
	}
	frames := 0
	st, _ = WalkFrames(data, func(_ int, p []byte) error {
		payload = p
		frames++
		return nil
	})
	if frames != 1 || st.Corrupt > 0 || st.Torn {
		return nil, st, fmt.Errorf("damaged (frames=%d corrupt=%d torn=%v)", frames, st.Corrupt, st.Torn)
	}
	return payload, st, nil
}

// replaySegment is a follower's replay loop. It walks a segment image
// (or what lies past the follower's cursor), decodes
// each CRC-valid payload into rec, drops records at or below *last —
// covered by a checkpoint, or delivered already — and hands the rest to
// fn, which moves *last past the records it accepts. rec is valid only
// during the call. undecodable counts the CRC-valid payloads
// DecodeRecord refused.
func replaySegment(data []byte, last *uint64, rec *Record, fn func(*Record) error) (st FrameStats, undecodable int, err error) {
	st, err = WalkFrames(data, func(_ int, payload []byte) error {
		if DecodeRecord(payload, rec) != nil {
			undecodable++
			return nil
		}
		if rec.Seq <= *last {
			return nil
		}
		return fn(rec)
	})
	return st, undecodable, err
}

// addSegment adds one segment walk to recovery's account: undecodable
// records and a segment with damage or a torn tail are warnings.
func (s *RecoveryStats) addSegment(res FrameStats, undecodable int) {
	s.Segments++
	s.CorruptSkipped += res.Corrupt + undecodable
	s.Resyncs += res.Resyncs
	s.Warnings += undecodable
	if res.Corrupt > 0 || res.Torn {
		s.Warnings++
	}
	if res.Torn {
		s.TornTails++
	}
}

// recoverDir is the first poll of a follower at position 0: the newest
// valid checkpoint goes to restore, every record beyond it to apply, and
// what the poll read is the recovery's account.
func recoverDir(dir string, logger *log.Logger, restore func([]byte, uint64) error, apply func(Record) error) (*Recovery, error) {
	rec := &Recovery{}
	f := NewFollower(dir, 0)
	if apply == nil {
		apply = func(Record) error { return nil }
	}
	_, err := f.poll(func(payload []byte, seq uint64) error {
		rec.Checkpoint = payload
		if restore != nil {
			return restore(payload, seq)
		}
		return nil
	}, apply)
	if err != nil {
		return nil, err
	}
	rec.Stats = f.walked
	rec.Stats.RecordsReplayed, rec.Stats.LastSeq = int(f.stats.Records), f.lastSeq
	if rec.Stats.Warnings > 0 {
		logger.Printf("journal: recovery skipped %d corrupt frames, %d torn tails; %d warnings (s3 diag -journal %s names each)",
			rec.Stats.CorruptSkipped, rec.Stats.TornTails, rec.Stats.Warnings, dir)
	}
	return rec, nil
}
