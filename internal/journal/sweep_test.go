package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashPointSweep is the property test at the heart of the
// durability contract: for EVERY byte-prefix of a journal segment —
// including cuts that land mid-header and mid-payload — recovery must
// return exactly the records whose frames are complete in the prefix,
// in order, without error. A crash can stop the kernel's writeback at
// any byte; this sweep proves no cut point confuses recovery.
func TestCrashPointSweep(t *testing.T) {
	src := t.TempDir()
	j, _, err := Open(src, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full := firstSegment(t, src)

	// Frame boundaries: frameEnd[k] is the byte offset after the k-th
	// complete frame.
	frameEnd := make([]int, n+1)
	for k, fr := range cleanFrames(t, full, n) {
		frameEnd[k+1] = fr.end()
	}
	if frameEnd[n] != len(full) {
		t.Fatalf("frame ends %d != file size %d", frameEnd[n], len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		// Committed state at this cut: records whose frames fit entirely.
		wantRecords := 0
		for wantRecords < n && frameEnd[wantRecords+1] <= cut {
			wantRecords++
		}

		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(dir, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		rec, recs, err := recoverRecords(dir)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if len(recs) != wantRecords {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantRecords)
		}
		for k, r := range recs {
			if r.Seq != uint64(k+1) {
				t.Fatalf("cut %d: record %d has seq %d", cut, k, r.Seq)
			}
		}
		// A cut strictly inside a frame is a torn tail; a cut exactly on a
		// boundary is clean.
		partial := cut != frameEnd[wantRecords]
		if partial && rec.Stats.TornTails != 1 {
			t.Fatalf("cut %d: torn tail not reported (stats %+v)", cut, rec.Stats)
		}
		if !partial && rec.Stats.TornTails != 0 {
			t.Fatalf("cut %d: spurious torn tail (stats %+v)", cut, rec.Stats)
		}
		if rec.Stats.CorruptSkipped != 0 {
			t.Fatalf("cut %d: spurious corruption (stats %+v)", cut, rec.Stats)
		}
	}
}

// TestCrashPointSweepWithCheckpoint repeats the sweep across a rotation:
// the cut lands in the post-checkpoint segment, and recovery must come
// back as checkpoint state plus the committed tail prefix.
func TestCrashPointSweepWithCheckpoint(t *testing.T) {
	src := t.TempDir()
	st := &checkpointState{}
	j, _, err := Open(src, Options{Fsync: FsyncOff, CheckpointEvery: 5, State: st.write})
	if err != nil {
		t.Fatal(err)
	}
	const n = 9 // checkpoint at 5, tail 6..9
	for i := 0; i < n; i++ {
		st.n++
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts, segs, err := listDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0].seq != 5 {
		t.Fatalf("expected one checkpoint at 5, got %+v", ckpts)
	}
	tailSeg := segs[len(segs)-1]
	if tailSeg.seq != 6 {
		t.Fatalf("tail segment starts at %d, want 6", tailSeg.seq)
	}
	full, err := os.ReadFile(filepath.Join(src, tailSeg.name))
	if err != nil {
		t.Fatal(err)
	}
	payloads := cleanFrames(t, full, n-5)
	frameEnd := make([]int, len(payloads)+1)
	for k, fr := range payloads {
		frameEnd[k+1] = fr.end()
	}

	ckptData, err := os.ReadFile(filepath.Join(src, ckpts[0].name))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		wantTail := 0
		for wantTail < len(payloads) && frameEnd[wantTail+1] <= cut {
			wantTail++
		}
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointPath(dir, 5), ckptData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(dir, 6), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, recs, err := recoverRecords(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rec.Stats.CheckpointSeq != 5 || string(rec.Checkpoint) != `{"applied":5}` {
			t.Fatalf("cut %d: checkpoint seq %d payload %s", cut, rec.Stats.CheckpointSeq, rec.Checkpoint)
		}
		if len(recs) != wantTail {
			t.Fatalf("cut %d: %d tail records, want %d", cut, len(recs), wantTail)
		}
		for k, r := range recs {
			if r.Seq != uint64(6+k) {
				t.Fatalf("cut %d: tail record %d has seq %d", cut, k, r.Seq)
			}
		}
	}
}
