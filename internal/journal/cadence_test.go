package journal

// Checkpoint cadence: a checkpoint is due after Options.CheckpointEvery
// records, and not before the framed WAL bytes appended since the last
// checkpoint outweigh that checkpoint's own frame.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// fixedRecord frames to the same length at every sequence number below
// 128 (a one-byte uvarint).
var fixedRecord = Record{Op: OpDisassoc, TS: 1000, User: "u-0", AP: "ap-0"}

// fixedFrameLen is fixedRecord's framed size.
func fixedFrameLen(t *testing.T) int {
	t.Helper()
	r := fixedRecord
	r.Seq = 1
	payload, err := AppendRecord(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	return FrameHeaderLen + len(payload)
}

// ckptTaken is one checkpoint the journal asked its owner for: at which
// record, and how large its frame.
type ckptTaken struct {
	seq   uint64
	frame int
}

// sizedState is an owner whose checkpoint frame is exactly frame bytes.
// seq counts the records the test appended, so each checkpoint it logs
// carries the sequence number of the record that tripped it.
type sizedState struct {
	seq   uint64
	frame int
	taken []ckptTaken
}

func (s *sizedState) write(w io.Writer) error {
	s.taken = append(s.taken, ckptTaken{s.seq, s.frame})
	_, err := w.Write(make([]byte, s.frame-FrameHeaderLen))
	return err
}

func (s *sizedState) seqs() []uint64 {
	seqs := make([]uint64, len(s.taken))
	for i, c := range s.taken {
		seqs[i] = c.seq
	}
	return seqs
}

// appendFixed appends fixedRecord until s.seq reaches to.
func appendFixed(t *testing.T, j *Journal, s *sizedState, to uint64) {
	t.Helper()
	for s.seq < to {
		s.seq++
		if err := j.Append(fixedRecord); err != nil {
			t.Fatal(err)
		}
	}
}

func wantSeqs(t *testing.T, tag string, s *sizedState, want ...uint64) {
	t.Helper()
	if got := s.seqs(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: checkpoints at records %v, want %v", tag, got, want)
	}
}

// TestCheckpointCadenceBySize: a state of S framed bytes and records of R
// framed bytes put checkpoints exactly max(CheckpointEvery, ⌈S/R⌉)
// records apart. A fresh journal has no checkpoint to outweigh, so its
// first comes at CheckpointEvery.
func TestCheckpointCadenceBySize(t *testing.T) {
	r := fixedFrameLen(t)
	for _, tc := range []struct {
		name         string
		every, frame int
	}{
		{"empty state, floor alone", 1, FrameHeaderLen},
		{"state outweighs the floor", 4, 10 * r},
		{"one byte more, one record more", 4, 10*r + 1},
		{"floor outweighs the state", 12, 5 * r},
		{"a tie checkpoints", 3, 3 * r},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &sizedState{frame: tc.frame}
			j, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, CheckpointEvery: tc.every, State: st.write})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			const n = 100
			appendFixed(t, j, st, n)
			interval := max(tc.every, (tc.frame+r-1)/r)
			var want []uint64
			for seq := tc.every; seq <= n; seq += interval {
				want = append(want, uint64(seq))
			}
			wantSeqs(t, fmt.Sprintf("every %d, %d-byte state, %d-byte records", tc.every, tc.frame, r), st, want...)
		})
	}
}

// TestForcedCheckpointRestartsCadence: Checkpoint() restarts both the
// record count and the byte count, and its own size is the one the log
// must outweigh next.
func TestForcedCheckpointRestartsCadence(t *testing.T) {
	r := fixedFrameLen(t)
	st := &sizedState{frame: 10 * r}
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, CheckpointEvery: 2, State: st.write})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendFixed(t, j, st, 8) // automatic at 2; 6 records are not yet 10r
	st.frame = 5 * r
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendFixed(t, j, st, 30)
	// Had the forced checkpoint kept the bytes since 2, record 12 would
	// outweigh 5r with 4 ≥ 2 records since the force.
	wantSeqs(t, "forced at 8", st, 2, 8, 13, 18, 23, 28)
}

// TestFailedCheckpointKeepsSize: a checkpoint whose rotation fails
// (injected fsync error) restarts the counts but leaves the size to
// outweigh at the last successful checkpoint's.
func TestFailedCheckpointKeepsSize(t *testing.T) {
	r := fixedFrameLen(t)
	var degraded atomic.Bool
	st := &sizedState{frame: 10 * r}
	j, _, err := Open(t.TempDir(), Options{
		Fsync: FsyncOff, CheckpointEvery: 2, State: st.write,
		OpenFile: func(path string) (File, error) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendFixed(t, j, st, 2) // succeeds: the size is 10r
	st.frame = 2 * r
	degraded.Store(true)
	errs := obsCkptErrs.Value()
	appendFixed(t, j, st, 12) // due at 12; its rotation's fsync fails
	if got := obsCkptErrs.Value() - errs; got != 1 {
		t.Fatalf("journal.checkpoint_errors rose by %d, want 1", got)
	}
	degraded.Store(false)
	appendFixed(t, j, st, 23)
	// Had the failed 2r checkpoint set the size, the next would be at 14.
	wantSeqs(t, "failed at 12", st, 2, 12, 22)
}

// TestOpenTakesCheckpointSize: a reopened journal waits for the log to
// outweigh the checkpoint recovery loaded, not the state it writes next,
// and not just CheckpointEvery records.
func TestOpenTakesCheckpointSize(t *testing.T) {
	r := fixedFrameLen(t)
	dir := t.TempDir()
	st := &sizedState{frame: 10 * r}
	j, _, err := Open(dir, Options{Fsync: FsyncOff, CheckpointEvery: 2, State: st.write})
	if err != nil {
		t.Fatal(err)
	}
	appendFixed(t, j, st, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := &sizedState{seq: st.seq, frame: 3 * r}
	j2, rec, err := Open(dir, Options{Fsync: FsyncOff, CheckpointEvery: 2, State: st2.write})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.Stats.CheckpointSeq != 2 || len(rec.Checkpoint) != 10*r-FrameHeaderLen {
		t.Fatalf("recovered checkpoint %d of %d bytes, want 2 of %d", rec.Stats.CheckpointSeq, len(rec.Checkpoint), 10*r-FrameHeaderLen)
	}
	appendFixed(t, j2, st2, 24)
	wantSeqs(t, "after reopen", st2, 12, 15, 18, 21, 24)
}

// TestCheckpointBytesBoundedByWAL: on seeded random schedules — a random
// floor, records of random size, a state that grows and shrinks at
// random — every checkpoint lands on the first record at which the rule
// holds, and the checkpoints' total bytes stay within the WAL bytes
// appended plus the newest checkpoint, as the rule implies: each one
// after the first is preceded by at least its predecessor's size in WAL
// bytes.
func TestCheckpointBytesBoundedByWAL(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		every := 1 + rng.Intn(16)
		st := &sizedState{frame: FrameHeaderLen + rng.Intn(2000)}
		j, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, CheckpointEvery: every, State: st.write})
		if err != nil {
			t.Fatal(err)
		}
		wal0 := obsAppendBytes.Value()
		// The rule, modelled: records and bytes since the last
		// checkpoint, and that checkpoint's frame.
		var since, sinceBytes, size int
		var want []uint64
		for i := 0; i < 400; i++ {
			if rng.Intn(4) == 0 {
				st.frame = max(FrameHeaderLen, st.frame+rng.Intn(401)-200)
			}
			rec := Record{Op: OpDisassoc, TS: int64(i), AP: "ap-0", User: trace.UserID(strings.Repeat("u", 1+rng.Intn(64)))}
			before := obsAppendBytes.Value()
			st.seq++
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			since++
			sinceBytes += int(obsAppendBytes.Value() - before)
			if since >= every && sinceBytes >= size {
				want = append(want, st.seq)
				since, sinceBytes, size = 0, 0, st.frame
			}
		}
		wal := obsAppendBytes.Value() - wal0
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		wantSeqs(t, fmt.Sprintf("seed %d (every %d)", seed, every), st, want...)
		if len(st.taken) < 3 {
			t.Fatalf("seed %d: %d checkpoints; the bound needs at least 3 to mean anything", seed, len(st.taken))
		}
		total := 0
		for _, c := range st.taken {
			total += c.frame
		}
		if newest := st.taken[len(st.taken)-1].frame; int64(total) > wal+int64(newest) {
			t.Fatalf("seed %d: %d checkpoint bytes > %d WAL bytes + %d newest", seed, total, wal, newest)
		}
	}
}
