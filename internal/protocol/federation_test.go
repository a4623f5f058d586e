package protocol

// Federation-surface tests: a standby controller mirroring a live
// owner through the exported replication entry points, promotion via
// AttachJournal, and the ReceiveBatch relay primitive.

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestStandbyMirrorsOwnerAndPromotes replicates a live journaled owner
// into a standby via Follower + ApplyRecord, kills the owner, promotes
// the standby with AttachJournal, and verifies (a) the domains match
// byte-for-byte at takeover, (b) the promoted controller serves writes
// that land in the same journal at the takeover epoch.
func TestStandbyMirrorsOwnerAndPromotes(t *testing.T) {
	dir := t.TempDir()
	owner, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{
			Fsync:           journal.FsyncOff,
			FlushEachAppend: true,
			Epoch:           1,
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := owner.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), float64(i+1)*1e6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := owner.Associate(trace.UserID(fmt.Sprintf("u-%d", i)), 100); err != nil {
			t.Fatal(err)
		}
	}
	owner.disassociate("u-7")

	standby, err := NewController(baseline.LLF{})
	if err != nil {
		t.Fatal(err)
	}
	f := journal.NewFollower(dir, 0)
	restore := func(payload []byte, _ uint64) error { return standby.RestoreCheckpoint(payload) }
	if _, err := f.Poll(restore, standby.ApplyRecord); err != nil {
		t.Fatal(err)
	}
	if f.LastSeq() != owner.JournalSeq() {
		t.Fatalf("follower at seq %d, owner head at %d", f.LastSeq(), owner.JournalSeq())
	}
	if !reflect.DeepEqual(standby.dom.ExportState(), owner.dom.ExportState()) {
		t.Fatal("standby domain state diverges from owner")
	}
	if got, want := assignmentsOf(standby), assignmentsOf(owner); !reflect.DeepEqual(got, want) {
		t.Fatalf("standby assignments %v != owner %v", got, want)
	}

	// Owner dies (no Close — crash). The standby takes over at epoch 2.
	sum, err := standby.AttachJournal(dir, journal.Options{
		Fsync:           journal.FsyncOff,
		FlushEachAppend: true,
		Epoch:           2,
	}, f.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if sum.ReplayErrors != 0 {
		t.Fatalf("takeover replayed with %d errors", sum.ReplayErrors)
	}
	if _, err := standby.Associate("u-9", 200); err != nil {
		t.Fatal(err)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}

	// The shared journal now carries both writers' records, the tail at
	// epoch 2; a follower past the owner's head sees only the takeover's.
	tail := journal.NewFollower(dir, 0)
	var last journal.Record
	n := 0
	if _, err := tail.Poll(func([]byte, uint64) error { return nil }, func(r journal.Record) error {
		last = r
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last.Epoch != 2 {
		t.Fatalf("journal tail at epoch %d, want takeover epoch 2", last.Epoch)
	}
	if last.Op != journal.OpAssoc {
		t.Fatalf("journal tail op %s, want the promoted controller's assoc", last.Op)
	}

	// Replaying the whole journal into a fresh controller reproduces the
	// promoted controller's final assignments — the oracle invariant the
	// chaos suite asserts across processes.
	oracle, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if oracle.sessions["u-9"].ap == "" {
		t.Fatal("oracle replay lost the promoted controller's assignment")
	}
}

// TestApplyRecordRefusedWhenArmed pins the owner/follower exclusivity:
// replication entry points must not run on a journal-armed controller.
func TestApplyRecordRefusedWhenArmed(t *testing.T) {
	dir := t.TempDir()
	c, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ApplyRecord(journal.Record{Op: journal.OpRegister, AP: "ap-x", CapacityBps: 1e6}); err == nil {
		t.Fatal("ApplyRecord succeeded on a journal-armed controller")
	}
	if err := c.RestoreCheckpoint([]byte(`{}`)); err == nil {
		t.Fatal("RestoreCheckpoint succeeded on a journal-armed controller")
	}
	if _, err := c.AttachJournal(dir, journal.Options{}, 0); err == nil {
		t.Fatal("AttachJournal succeeded on a journal-armed controller")
	}
}

// TestReceiveBatchRoundtrip pins the relay primitive: SendBatch's
// single binary frame arrives as one ReceiveBatch unit, and the buffer
// is reused across calls.
func TestReceiveBatchRoundtrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	src := NewConn(a, time.Second)
	dst := NewConn(b, time.Second)

	batch := []Message{
		{Type: MsgHello, Role: RoleAP, ID: "ap-1", CapacityBps: 1e6},
		{Type: MsgReport, AP: "ap-1", LoadBps: 5e5},
		{Type: MsgReport, AP: "ap-1", LoadBps: 6e5},
	}
	errc := make(chan error, 1)
	go func() { errc <- src.SendBatch(batch) }()
	got, err := dst.ReceiveBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sendErr := <-errc; sendErr != nil {
		t.Fatal(sendErr)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("batch round-trip: got %+v", got)
	}

	// Reuse: a second single-message frame lands in the same buffer.
	go func() { errc <- src.Send(Message{Type: MsgDisassoc, User: "u-1"}) }()
	again, err := dst.ReceiveBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if sendErr := <-errc; sendErr != nil {
		t.Fatal(sendErr)
	}
	if len(again) != 1 || again[0].Type != MsgDisassoc {
		t.Fatalf("second batch: %+v", again)
	}
}
