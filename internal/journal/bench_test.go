package journal

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// benchRecord is a realistic single-placement association record — the
// dominant journal traffic in a live controller.
func benchRecord(i int) Record {
	return Record{
		Op: OpAssoc, TS: int64(1000 + i),
		Placements: []Placement{{
			User:      trace.UserID(fmt.Sprintf("user-%06d", i%4096)),
			AP:        trace.APID(fmt.Sprintf("ap-%03d", i%64)),
			DemandBps: 50e3,
		}},
	}
}

// benchAppend measures append throughput under one fsync policy.
func benchAppend(b *testing.B, pol FsyncPolicy) {
	j, _, err := Open(b.TempDir(), Options{Fsync: pol})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend publishes the durability/throughput trade-off:
// FsyncAlways pays one disk flush per record, FsyncInterval amortizes
// it onto a background tick, FsyncOff leaves flushing to the OS.
func BenchmarkJournalAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			benchAppend(b, pol)
		})
	}
}

// buildRecoverDir writes a journal with one checkpoint followed by
// `tail` record frames — the shape BenchmarkRecover replays.
func buildRecoverDir(tb testing.TB, dir string, tail int) {
	tb.Helper()
	ckpt := []byte(`{"domain":{"version":1}}`)
	j, _, err := Open(dir, Options{
		Fsync: FsyncOff,
		State: func(w io.Writer) error { _, err := w.Write(ckpt); return err },
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Append(benchRecord(0)); err != nil {
		tb.Fatal(err)
	}
	if err := j.Checkpoint(); err != nil { // rotate; the rest is pure tail
		tb.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		if err := j.Append(benchRecord(i + 1)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRecover measures cold-start recovery: newest checkpoint plus
// a 100k-record tail decoded and parsed.
func BenchmarkRecover(b *testing.B) {
	const tail = 100_000
	dir := b.TempDir()
	buildRecoverDir(b, dir, tail)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Recover(dir)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Stats.RecordsReplayed != tail {
			b.Fatalf("recovered %d records, want %d", rec.Stats.RecordsReplayed, tail)
		}
	}
}

// TestRecover100kUnder5s pins the ISSUE budget: recovering a 100k-event
// tail from the latest checkpoint must finish in under 5 seconds.
func TestRecover100kUnder5s(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery budget check skipped in -short")
	}
	const tail = 100_000
	dir := t.TempDir()
	buildRecoverDir(t, dir, tail)
	start := time.Now()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if rec.Stats.RecordsReplayed != tail {
		t.Fatalf("recovered %d records, want %d", rec.Stats.RecordsReplayed, tail)
	}
	if took > 5*time.Second {
		t.Fatalf("recovery of %d records took %v, budget 5s", tail, took)
	}
	t.Logf("recovered %d records in %v", tail, took)
}

// BenchmarkFollowPoll measures what a follower pays to pick up 16 new
// records from a segment that already holds 1 000 it has delivered (and
// 16 more each iteration): the cost of a poll must follow what is new,
// not what the segment holds.
func BenchmarkFollowPoll(b *testing.B) {
	dir := b.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncOff, FlushEachAppend: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	next := 0
	appendN := func(n int) {
		for ; n > 0; n-- {
			if err := j.Append(benchRecord(next)); err != nil {
				b.Fatal(err)
			}
			next++
		}
	}
	f := NewFollower(dir, 0)
	apply := func(Record) error { return nil }
	appendN(1000)
	if n, err := f.Poll(nil, apply); err != nil || n != 1000 {
		b.Fatalf("first poll = %d, %v", n, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		appendN(16)
		b.StartTimer()
		if n, err := f.Poll(nil, apply); err != nil || n != 16 {
			b.Fatalf("poll = %d, %v", n, err)
		}
	}
}
