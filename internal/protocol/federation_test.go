package protocol

// Federation-surface tests: a standby controller mirroring a live
// owner through the exported replication entry points, promotion via
// AttachJournal, and the frame primitives a relay forwards with.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
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
	owner.disassociate("u-7", nil)

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
	if !reflect.DeepEqual(standby.dom.ExportState(nil), owner.dom.ExportState(nil)) {
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
	// With no resync callback the reader wants records, not state: it
	// reads the segments rather than start at Close's checkpoint.
	tail := journal.NewFollower(dir, 0)
	var last journal.Record
	n := 0
	if _, err := tail.Poll(nil, func(r journal.Record) error {
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

// TestFreshStandbyStartsAtCheckpoint: an owner serves one station's
// traffic, which no record carries, and shuts down with a checkpoint at
// seq 3 while its first segment still holds records 1–3. A standby built
// from a fresh follower, as a federation node builds one, starts at that
// checkpoint as a restart does: both read the served bytes, and the
// standby's state is the restarted controller's.
func TestFreshStandbyStartsAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	jopts := journal.Options{Fsync: journal.FsyncOff}
	owner, err := NewController(baseline.LLF{}, WithTimeout(testTimeout), WithJournal(dir, jopts))
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.RegisterAP("ap-1", 1e6); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		owner.handle(NewConn(server, testTimeout))
	}()
	st, err := DialStationWith(func(string, time.Duration) (net.Conn, error) { return client, nil }, "pipe", "u", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(12_345); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Associate(100); err != nil { // its reply: the traffic is credited
		t.Fatal(err)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	<-done
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(ckpts) != 1 {
		t.Fatalf("checkpoints %v, want the one Close wrote", ckpts)
	}

	standby, err := NewController(baseline.LLF{})
	if err != nil {
		t.Fatal(err)
	}
	f := journal.NewFollower(dir, 0)
	if _, err := f.Poll(func(payload []byte, _ uint64) error { return standby.RestoreCheckpoint(payload) },
		standby.ApplyRecord); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewController(baseline.LLF{}, WithJournal(dir, jopts))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	got, want := standby.Snapshot(), restarted.Snapshot()
	if g, w := got["ap-1"].ServedBytes, want["ap-1"].ServedBytes; g != w || w != 12_345 {
		t.Fatalf("ap-1 served %d bytes on the standby, %d on the restarted controller; want 12345", g, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("standby %+v, restarted controller %+v", got, want)
	}
	if s := f.Stats(); s.Resyncs != 1 || s.LastSeq != 3 {
		t.Fatalf("follower stats %+v, want one resync, at seq 3", s)
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

// TestReceiveBatchRoundtrip pins the relay primitives on a hop built as
// the federation relay builds one: the hello's frame goes on whole
// through Frame, a later frame crosses through ReceiveFrame/SendFrame
// byte for byte, and the hop's own Receive then decodes the frame after
// them.
func TestReceiveBatchRoundtrip(t *testing.T) {
	peer, hopSide := net.Pipe()
	ownerSide, owner := net.Pipe()
	defer peer.Close()
	defer hopSide.Close()
	defer ownerSide.Close()
	defer owner.Close()
	in, out := NewConn(hopSide, time.Second), NewConn(ownerSide, time.Second)

	helloFrame := framesOf(t, Message{Type: MsgHello, Role: RoleAP, ID: "ap-1", CapacityBps: 1e6})
	laterFrame := framesOf(t, Message{Type: MsgReport, AP: "ap-1", LoadBps: 7e5})
	lastFrame := framesOf(t, Message{Type: MsgTraffic, Bytes: 9})
	errc := make(chan error, 1)
	go func() {
		for _, f := range [][]byte{helloFrame, laterFrame, lastFrame} {
			if _, err := peer.Write(f); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	// forward hands frame to the owner side and checks what arrives there.
	forward := func(frame []byte, want []byte) {
		t.Helper()
		go func() { errc <- out.SendFrame(frame) }()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(owner, got); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the owner side got\n%x\nwant\n%x", got, want)
		}
	}

	hello, err := ReadHello(in, 0)
	if err != nil || hello.Type != MsgHello || hello.ID != "ap-1" {
		t.Fatalf("hello = %+v, %v", hello, err)
	}
	forward(in.Frame(), helloFrame)
	later, err := in.ReceiveFrame()
	if err != nil {
		t.Fatal(err)
	}
	forward(later, laterFrame)
	if m, err := in.Receive(); err != nil || m != (Message{Type: MsgTraffic, Bytes: 9}) {
		t.Fatalf("after the forwarded frames Receive = %+v, %v; want the traffic message", m, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
