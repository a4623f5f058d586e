package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/faults"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// testRecord builds a deterministic record for index i (Seq is assigned
// by Append).
func testRecord(i int) Record {
	switch i % 3 {
	case 0:
		return Record{Op: OpRegister, TS: int64(1000 + i),
			AP: trace.APID(fmt.Sprintf("ap-%d", i)), CapacityBps: 10e6}
	case 1:
		return Record{Op: OpAssoc, TS: int64(1000 + i), Placements: []Placement{
			{User: trace.UserID(fmt.Sprintf("u-%d", i)), AP: "ap-0", DemandBps: 50e3},
		}}
	default:
		return Record{Op: OpDisassoc, TS: int64(1000 + i),
			User: trace.UserID(fmt.Sprintf("u-%d", i-1)), AP: "ap-0"}
	}
}

// walkedFrame is one CRC-valid frame of a segment image: where it starts
// and what it carries. Tests find frames by walking, never by assuming a
// record's encoded size.
type walkedFrame struct {
	off     int
	payload []byte
}

func (f walkedFrame) end() int { return f.off + FrameHeaderLen + len(f.payload) }

func walkAll(data []byte) ([]walkedFrame, FrameStats) {
	var frames []walkedFrame
	st, _ := WalkFrames(data, func(off int, payload []byte) error {
		frames = append(frames, walkedFrame{off, payload})
		return nil
	})
	return frames, st
}

// cleanFrames walks a segment image that must hold exactly n undamaged
// frames.
func cleanFrames(t *testing.T, data []byte, n int) []walkedFrame {
	t.Helper()
	frames, st := walkAll(data)
	if st.Corrupt != 0 || st.Torn || len(frames) != n {
		t.Fatalf("clean segment walk: %d frames (want %d), corrupt=%d torn=%v", len(frames), n, st.Corrupt, st.Torn)
	}
	return frames
}

// firstSegment reads the oldest segment of dir.
func firstSegment(t *testing.T, dir string) []byte {
	t.Helper()
	_, segs, err := listDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v, %v", dir, segs, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Seq(); got != n {
		t.Fatalf("Seq = %d, want %d", got, n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(got.Records), n)
	}
	for i, r := range got.Records {
		want := testRecord(i)
		want.Seq = uint64(i + 1)
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(r)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("record %d: got %s, want %s", i, gb, wb)
		}
	}
	if got.Stats.CorruptSkipped != 0 || got.Stats.TornTails != 0 {
		t.Fatalf("clean journal reported damage: %+v", got.Stats)
	}
}

// TestReopenContinuesSequence checks that a reopened journal continues
// numbering after the recovered tail and starts a fresh segment (never
// appending in place after a potential torn tail).
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 7 {
		t.Fatalf("recovered %d records, want 7", len(rec.Records))
	}
	if err := j2.Append(testRecord(7)); err != nil {
		t.Fatal(err)
	}
	if got := j2.Seq(); got != 8 {
		t.Fatalf("Seq after reopen = %d, want 8", got)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (fresh segment per open)", len(segs))
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 8 || got.Records[7].Seq != 8 {
		t.Fatalf("recovered %d records, last seq %d", len(got.Records), got.Records[len(got.Records)-1].Seq)
	}
}

// corrupt flips one byte of the (single) segment file at offset off.
func corruptSegment(t *testing.T, dir string, off int) {
	t.Helper()
	_, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSkipsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte inside frame 2 (0-based): its CRC fails, the
	// frame is skipped whole, and frames 3 and 4 still recover.
	corruptSegment(t, dir, cleanFrames(t, firstSegment(t, dir), 5)[2].off+FrameHeaderLen+3)
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1", rec.Stats.CorruptSkipped)
	}
	var seqs []uint64
	for _, r := range rec.Records {
		seqs = append(seqs, r.Seq)
	}
	want := []uint64{1, 2, 4, 5}
	if fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("recovered seqs %v, want %v", seqs, want)
	}
}

func TestRecoverResyncsAfterDamagedHeader(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Smash frame 1's magic marker: recovery loses framing there and must
	// re-synchronize on frame 2's magic.
	corruptSegment(t, dir, cleanFrames(t, firstSegment(t, dir), 4)[1].off+1)
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.CorruptSkipped == 0 {
		t.Fatal("expected corruption to be counted")
	}
	var seqs []uint64
	for _, r := range rec.Records {
		seqs = append(seqs, r.Seq)
	}
	if fmt.Sprint(seqs) != fmt.Sprint([]uint64{1, 3, 4}) {
		t.Fatalf("recovered seqs %v, want [1 3 4]", seqs)
	}
}

// checkpointState is a trivial owner: its state is the JSON of how many
// records it has "applied".
type checkpointState struct{ n int }

func (s *checkpointState) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, `{"applied":%d}`, s.n)
	return err
}

func TestCheckpointRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(dir, Options{
		Fsync:           FsyncOff,
		CheckpointEvery: 5,
		State:           st.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 23
	for i := 0; i < n; i++ {
		st.n++ // state first, then journal — the owner's commit order
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 4 checkpoints taken (at 5, 10, 15, 20); only the newest 2 retained.
	if len(ckpts) != 2 {
		t.Fatalf("checkpoints = %d, want 2", len(ckpts))
	}
	if ckpts[0].seq != 15 || ckpts[1].seq != 20 {
		t.Fatalf("checkpoint seqs = %d,%d, want 15,20", ckpts[0].seq, ckpts[1].seq)
	}
	// Segments covered by checkpoint 15 are pruned.
	for _, s := range segs {
		if s.seq < 16 {
			t.Fatalf("segment %s should have been pruned", s.name)
		}
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.CheckpointSeq != 20 {
		t.Fatalf("CheckpointSeq = %d, want 20", rec.Stats.CheckpointSeq)
	}
	if string(rec.Checkpoint) != `{"applied":20}` {
		t.Fatalf("checkpoint payload = %s", rec.Checkpoint)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("tail records = %d, want 3 (21..23)", len(rec.Records))
	}
	if rec.Records[0].Seq != 21 || rec.Records[2].Seq != 23 {
		t.Fatalf("tail seqs %d..%d, want 21..23", rec.Records[0].Seq, rec.Records[2].Seq)
	}
}

func TestRecoverFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(dir, Options{Fsync: FsyncOff, CheckpointEvery: 5, State: st.write})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		st.n++ // state first, then journal — the owner's commit order
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the newest checkpoint (seq 10): recovery must fall back to
	// seq 5 and replay 6..12 from the retained segments.
	data, err := os.ReadFile(checkpointPath(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	data[FrameHeaderLen+2] ^= 0xFF
	if err := os.WriteFile(checkpointPath(dir, 10), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.CheckpointSeq != 5 {
		t.Fatalf("CheckpointSeq = %d, want fallback to 5", rec.Stats.CheckpointSeq)
	}
	if string(rec.Checkpoint) != `{"applied":5}` {
		t.Fatalf("checkpoint payload = %s", rec.Checkpoint)
	}
	if len(rec.Records) != 7 || rec.Records[0].Seq != 6 || rec.Records[6].Seq != 12 {
		t.Fatalf("tail = %d records (%v..), want 6..12", len(rec.Records), rec.Records[0].Seq)
	}
}

func TestForcedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(dir, Options{Fsync: FsyncOff, CheckpointEvery: 1000, State: st.write})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		st.n++ // state first, then journal — the owner's commit order
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.CheckpointSeq != 4 || len(rec.Records) != 0 {
		t.Fatalf("after forced checkpoint: seq %d, %d tail records",
			rec.Stats.CheckpointSeq, len(rec.Records))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"Interval", FsyncInterval}, {"OFF", FsyncOff}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != strings.ToLower(tc.in) {
			t.Fatalf("String() = %q", got.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestFsyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// The background flusher must land the record without Close's help.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background fsync never flushed the record")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultfileTornTail injects a torn tail at an awkward byte offset
// through the file fault wrapper: recovery returns exactly the records
// whose frames landed in full, and reports the tear.
func TestFaultfileTornTail(t *testing.T) {
	// First pass: measure clean frame sizes.
	clean := t.TempDir()
	j, _, err := Open(clean, Options{Fsync: FsyncOff})
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
	// Tear mid-way through the 4th frame.
	tearAt := int64(cleanFrames(t, firstSegment(t, clean), 6)[3].off + 5)

	dir := t.TempDir()
	j2, _, err := Open(dir, Options{
		Fsync: FsyncOff,
		OpenFile: func(path string) (File, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return faults.WrapFile(f, 0, faults.Const(faults.FileConfig{TornAtByte: tearAt})), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := j2.Append(testRecord(i)); err != nil {
			t.Fatal(err) // writes "succeed"; the tail just never lands
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records past a tear after frame 3, want 3", len(rec.Records))
	}
	if rec.Stats.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", rec.Stats.TornTails)
	}
}

// TestFaultfileBitFlips soaks recovery against random single-bit damage:
// whatever lands, recovery must not fail, must return strictly
// increasing sequence numbers, and must account every missing record as
// corruption.
func TestFaultfileBitFlips(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		j, _, err := Open(dir, Options{
			Fsync: FsyncOff,
			OpenFile: func(path string) (File, error) {
				f, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				return faults.WrapFile(f, seed, faults.Const(faults.FileConfig{BitFlipProb: 0.08})), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 60
		for i := 0; i < n; i++ {
			if err := j.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var last uint64
		for _, r := range rec.Records {
			if r.Seq <= last {
				t.Fatalf("seed %d: non-increasing seq %d after %d", seed, r.Seq, last)
			}
			last = r.Seq
		}
		if len(rec.Records) > n {
			t.Fatalf("seed %d: recovered %d > appended %d", seed, len(rec.Records), n)
		}
		if len(rec.Records) < n && rec.Stats.CorruptSkipped == 0 && rec.Stats.TornTails == 0 {
			t.Fatalf("seed %d: lost %d records with no damage reported",
				seed, n-len(rec.Records))
		}
	}
}

// TestFaultfileShortWrite: a short write fails the append (and poisons
// the buffered writer), but everything acked before it recovers.
func TestFaultfileShortWrite(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{
		Fsync: FsyncAlways,
		OpenFile: func(path string) (File, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return faults.WrapFile(f, 7, faults.Const(faults.FileConfig{ShortWriteProb: 0.2})), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 50; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			break
		}
		acked++
	}
	j.Close()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) < acked {
		t.Fatalf("recovered %d < %d acked records", len(rec.Records), acked)
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("recovered seq %d at position %d", r.Seq, i)
		}
	}
}

// TestFailedFsyncAppend: under FsyncAlways, an append whose fsync fails
// returns an error wrapping the injected one and counts
// journal.append_errors, but does not poison the journal. The record was
// written before the fsync failed, later appends go on once the device
// recovers, and reopening recovers every record, the failed one's
// included.
func TestFailedFsyncAppend(t *testing.T) {
	dir := t.TempDir()
	var degraded atomic.Bool
	degraded.Store(true)
	j, _, err := Open(dir, Options{
		Fsync: FsyncAlways,
		OpenFile: func(path string) (File, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return faults.WrapFile(f, 0, func() faults.FileConfig {
				if degraded.Load() {
					return faults.FileConfig{FailSyncAfter: 3}
				}
				return faults.FileConfig{}
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d before the fsync failure: %v", i, err)
		}
	}
	before := obsAppendErrs.Value()
	if err := j.Append(testRecord(3)); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append over a failing fsync = %v, want it to wrap the injected error", err)
	}
	if got := obsAppendErrs.Value() - before; got != 1 {
		t.Fatalf("journal.append_errors rose by %d, want 1", got)
	}
	degraded.Store(false)
	for i := 4; i < 6; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d after the device recovered: %v", i, err)
		}
	}
	if j.Seq() != 6 {
		t.Fatalf("Seq = %d, want 6 (the failed append keeps its sequence number)", j.Seq())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 6 {
		t.Fatalf("recovered %d records, want all 6", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) || r.Op != testRecord(i).Op {
			t.Fatalf("record %d = seq %d op %s, want seq %d op %s", i, r.Seq, r.Op, i+1, testRecord(i).Op)
		}
	}
}

func TestEncodeDecodeFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{[]byte("{}"), []byte(`{"op":"assoc"}`), {}, bytes.Repeat([]byte{0xAA}, 100)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	got := cleanFrames(t, buf, len(payloads))
	for i := range got {
		if !bytes.Equal(got[i].payload, payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if last := got[len(got)-1]; last.end() != len(buf) {
		t.Fatalf("last frame ends at %d of %d bytes", last.end(), len(buf))
	}
}

// TestAppendDoesNotAllocate: a record is encoded, framed and handed to
// the segment writer inside the journal's reused buffer.
func TestAppendDoesNotAllocate(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, FlushEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := testRecord(1)
	if avg := testing.AllocsPerRun(200, func() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Append allocates %.1f objects per record, want 0", avg)
	}
}
