package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/atomicfile"
	"github.com/s3wlan/s3wlan/internal/obs"
)

// Journal health, exported through the obs registry (surfaced by the
// s3proto health output alongside the protocol.* and domain.* families).
var (
	obsAppends     = obs.GetCounter("journal.appends", "WAL records appended (one per journaled domain mutation)")
	obsAppendBytes = obs.GetCounter("journal.append_bytes", "Framed bytes appended to WAL segments")
	obsAppendErrs  = obs.GetCounter("journal.append_errors", "Failed appends: encode, write or fsync errors")
	obsFsyncs      = obs.GetCounter("journal.fsyncs", "Segment fsyncs (per append under FsyncAlways, per tick under FsyncInterval)")
	obsFsync       = obs.GetHistogram("journal.fsync", "Latency of one segment flush+fsync")
	obsCheckpoints = obs.GetCounter("journal.checkpoints", "Checkpoints written (every CheckpointEvery records, plus forced ones)")
	obsCkptErrs    = obs.GetCounter("journal.checkpoint_errors", "Failed checkpoints (compaction degrades, correctness unaffected)")
	obsCkptHist    = obs.GetHistogram("journal.checkpoint", "Latency of one checkpoint write + segment rotation")
	obsCkptBytes   = obs.GetCounter("journal.checkpoint_bytes", "Checkpoint payload bytes written (owner state, before framing)")
	obsRotations   = obs.GetCounter("journal.rotations", "Segment rotations (one per successful checkpoint)")
	obsReplayed    = obs.GetCounter("journal.recovery.records_replayed", "Records replayed from the WAL tail at recovery")
	obsCorrupt     = obs.GetCounter("journal.recovery.corrupt_skipped", "CRC-corrupt or undecodable frames skipped at recovery")
	obsTorn        = obs.GetCounter("journal.recovery.torn_tails", "Incomplete trailing frames found at recovery (≤1 per segment)")
	obsRecWarns    = obs.GetCounter("journal.recover.warnings", "Tolerated-corruption warnings emitted during recovery (unreadable or damaged checkpoints, unreadable segments, undecodable records)")
	obsRecResyncs  = obs.GetCounter("journal.recover.resyncs", "Magic-scan re-synchronizations after lost framing during recovery")
	obsSeq         = obs.GetGauge("journal.seq", "Last assigned WAL sequence number")
)

// FsyncPolicy selects when appended frames are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: no acknowledged record is
	// ever lost, at the cost of one disk flush per commit.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background tick (Options.FsyncInterval):
	// a crash loses at most the last interval's records.
	FsyncInterval
	// FsyncOff never fsyncs explicitly; the OS flushes at its leisure. A
	// process crash (without an OS crash) still loses nothing once the
	// bytes are written, since the page cache survives the process.
	FsyncOff
)

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
	// FsyncInterval is the background flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery rotates the journal through a checkpoint after
	// this many appended records; 0 disables checkpointing.
	CheckpointEvery int
	// State, when non-nil, writes the owner's full state snapshot for a
	// checkpoint. It is invoked synchronously from Append, so it observes
	// exactly the state as of the record that triggered the checkpoint.
	// w is the *bytes.Buffer the checkpoint frame is built in: an owner
	// that encodes into its AvailableBuffer() and passes the result to
	// Write has written in place.
	State func(w io.Writer) error
	// Restore and Replay, when set, are handed what Open recovers as it
	// is read, as Follower.Poll's callbacks are: the newest valid
	// checkpoint, then every record beyond it, each valid only during the
	// call (Recovery.Records stays empty). An error from either fails Open.
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

	mu        sync.Mutex
	f         File
	bw        *bufio.Writer
	frame     bytes.Buffer // the record or checkpoint frame being built, reused
	seq       uint64       // last assigned sequence number
	epoch     uint64       // stamped into every appended record
	sinceCkpt int
	closed    bool

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
	// Segments counts journal segments scanned.
	Segments int
	// Warnings counts the tolerated-corruption warnings recovery logged:
	// unreadable or damaged checkpoints, unreadable segments, and
	// undecodable records. Surfaced as journal.recover.warnings.
	Warnings int
	// Resyncs counts magic-scan re-synchronizations after lost framing
	// (a damaged header or length). Surfaced as journal.recover.resyncs.
	Resyncs int
}

// Recovery is the reconstructed state handed back by Open: the newest
// valid checkpoint payload (nil when none), and every decodable record
// with a sequence number beyond it, in order — unless Options.Replay
// took them as they were read.
type Recovery struct {
	Checkpoint []byte
	Records    []Record
	Stats      RecoveryStats
}

// Open recovers the journal in dir (creating it if absent) and opens a
// fresh segment for appending. Appending always starts in a new segment
// so a torn tail left by a crash is never extended in place.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
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
	j := &Journal{dir: dir, opts: opts, epoch: opts.Epoch, seq: rec.Stats.LastSeq}
	if err := j.openSegmentLocked(j.seq + 1); err != nil {
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

// Epoch returns the writer's current ownership generation.
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append assigns the next sequence number to rec, frames and writes it,
// applies the fsync policy, and checkpoints + rotates when due. The
// caller's record is not retained.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append after close")
	}
	rec.Seq = j.seq + 1
	rec.Epoch = j.epoch
	j.frame.Reset()
	frame, err := AppendRecord(beginFrame(j.frame.AvailableBuffer()), &rec)
	if err != nil {
		obsAppendErrs.Inc()
		return err
	}
	j.frame.Write(frame) // in place; keeps the grown buffer for the next record
	j.seq = rec.Seq
	sealFrame(frame)
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
	if j.opts.CheckpointEvery > 0 && j.opts.State != nil && j.sinceCkpt >= j.opts.CheckpointEvery {
		j.sinceCkpt = 0
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
	j.sinceCkpt = 0
	return j.checkpointLocked()
}

// Close flushes, fsyncs and closes the active segment.
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
	if j.bw != nil {
		if ferr := j.bw.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if j.f != nil {
		if serr := j.f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := j.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
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
	tick := time.NewTicker(j.opts.FsyncInterval)
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
// firstSeq.
func (j *Journal) openSegmentLocked(firstSeq uint64) error {
	f, err := j.opts.OpenFile(segmentPath(j.dir, firstSeq))
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriter(f)
	return nil
}

// checkpointLocked writes the owner's state as ckpt-<seq>.snap, rotates
// to a fresh segment and prunes segments/checkpoints superseded by the
// two newest checkpoints (the second-newest is kept as the fallback for
// a damaged newest).
func (j *Journal) checkpointLocked() error {
	start := time.Now()
	seq := j.seq
	err := atomicfile.WriteFile(checkpointPath(j.dir, seq), func(w io.Writer) error {
		j.frame.Reset()
		j.frame.Write(beginFrame(j.frame.AvailableBuffer()))
		if err := j.opts.State(&j.frame); err != nil {
			return fmt.Errorf("journal: checkpoint state: %w", err)
		}
		sealFrame(j.frame.Bytes())
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
	sort.Slice(ckpts, func(i, k int) bool { return ckpts[i].seq < ckpts[k].seq })
	sort.Slice(segs, func(i, k int) bool { return segs[i].seq < segs[k].seq })
	return ckpts, segs, nil
}

// Recover reads the journal in dir without opening it for appending:
// the newest valid checkpoint plus the decodable record tail beyond it.
// Open wraps this; Recover alone serves inspection tooling and tests.
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

// replaySegment is the one replay loop recovery and followers share. It
// walks a segment image (or what lies past a follower's cursor), decodes
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

// recoverDir hands the newest valid checkpoint to restore and every
// record beyond it to apply, which by default collects Recovery.Records.
func recoverDir(dir string, logger *log.Logger, restore func([]byte, uint64) error, apply func(Record) error) (*Recovery, error) {
	rec := &Recovery{}
	if apply == nil {
		apply = func(r Record) error {
			r.Placements = append([]Placement(nil), r.Placements...) // the decoder reuses r's
			rec.Records = append(rec.Records, r)
			return nil
		}
	}
	ckpts, segs, err := listDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rec, nil
		}
		return nil, err
	}

	// Newest checkpoint that validates wins; a damaged one is counted
	// and the predecessor tried.
	for i := len(ckpts) - 1; i >= 0; i-- {
		payload, st, rerr := readCheckpoint(filepath.Join(dir, ckpts[i].name))
		rec.Stats.Resyncs += st.Resyncs
		if rerr != nil {
			logger.Printf("journal: checkpoint %s: %v, trying older", ckpts[i].name, rerr)
			rec.Stats.CorruptSkipped++
			rec.Stats.Warnings++
			continue
		}
		rec.Checkpoint = payload
		rec.Stats.CheckpointSeq = ckpts[i].seq
		if restore != nil {
			if err := restore(payload, ckpts[i].seq); err != nil {
				return nil, err
			}
		}
		break
	}

	// Replay every segment in order, keeping records beyond the
	// checkpoint. Records at or below it (a crash between checkpoint
	// rename and rotation leaves some) are already part of the snapshot.
	last := rec.Stats.CheckpointSeq
	var scratch Record
	for _, seg := range segs {
		data, rerr := os.ReadFile(filepath.Join(dir, seg.name))
		if rerr != nil {
			logger.Printf("journal: segment %s unreadable: %v", seg.name, rerr)
			rec.Stats.CorruptSkipped++
			rec.Stats.Warnings++
			continue
		}
		rec.Stats.Segments++
		res, undecodable, err := replaySegment(data, &last, &scratch, func(r *Record) error {
			last = r.Seq
			rec.Stats.RecordsReplayed++
			return apply(*r)
		})
		if err != nil {
			return nil, err
		}
		rec.Stats.CorruptSkipped += res.Corrupt + undecodable
		rec.Stats.Resyncs += res.Resyncs
		rec.Stats.Warnings += undecodable
		if res.Corrupt > 0 || res.Torn {
			rec.Stats.Warnings++
		}
		if res.Torn {
			rec.Stats.TornTails++
		}
		if undecodable > 0 {
			logger.Printf("journal: segment %s: %d undecodable records (s3diag -journal names each)", seg.name, undecodable)
		}
	}
	rec.Stats.LastSeq = last
	if rec.Stats.CorruptSkipped > 0 || rec.Stats.TornTails > 0 {
		logger.Printf("journal: recovery skipped %d corrupt frames, %d torn tails",
			rec.Stats.CorruptSkipped, rec.Stats.TornTails)
	}
	return rec, nil
}
