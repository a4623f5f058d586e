package federation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// recordConn is a net.Conn that keeps what is written to it.
type recordConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// frameOf frames ms together: one count, the messages, one CRC. One
// message is the frame Send writes; a frame of several is refused.
func frameOf(t *testing.T, ms ...protocol.Message) []byte {
	t.Helper()
	payload := binary.AppendUvarint(nil, uint64(len(ms)))
	for _, m := range ms {
		rec := &recordConn{}
		if err := protocol.NewConn(rec, 0).Send(m); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, rec.buf.Bytes()[journal.FrameHeaderLen+1:]...) // drop header and count 1
	}
	return journal.AppendFrame(nil, payload)
}

// TestRelayForwardsFramesWhole runs the router against a stand-in owner
// that records the bytes it gets. The hello's frame arrives byte for
// byte; so do the owner's reply and a later frame. A frame with a bad
// magic, an oversize length or a CRC mismatch stops at the relay, which
// closes the owner's side; the CRC mismatch is counted in
// protocol.codec.crc_errors. A hello framed with a second message is
// refused before the owner is dialed.
func TestRelayForwardsFramesWhole(t *testing.T) {
	own, err := DefaultOwnership([]string{"node-0", "elsewhere"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		NodeID:      "node-0",
		Root:        t.TempDir(),
		Ownership:   own,
		LeaseTTL:    time.Minute,
		NewSelector: func() wlan.Selector { return baseline.LLF{} },
		Journal:     journal.Options{Fsync: journal.FsyncOff},
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Tick()
	ownerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ownerLn.Close()
	if err := n.leases.write(&Lease{Group: 1, Epoch: 1, Owner: "elsewhere", Addr: ownerLn.Addr().String(),
		Renewed: n.cfg.nowMs(), TTL: int64(time.Minute / time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	var ap trace.APID
	for i := 0; own.GroupOfAP(ap) != 1; i++ {
		ap = trace.APID(fmt.Sprintf("ap-%d", i))
	}

	hello := protocol.Message{Type: protocol.MsgHello, Role: protocol.RoleAP, ID: string(ap), CapacityBps: 1e6}
	report := protocol.Message{Type: protocol.MsgReport, AP: string(ap), LoadBps: 7e5}
	helloFrame := frameOf(t, hello)
	replyFrame := frameOf(t, protocol.Message{Type: protocol.MsgHelloOK, ID: string(ap)})
	laterFrame := frameOf(t, report)
	badMagic := append([]byte(nil), laterFrame...)
	badMagic[0] ^= 0xFF
	oversize := append([]byte(nil), laterFrame...)
	binary.LittleEndian.PutUint32(oversize[4:8], 1<<20+1)
	badCRC := append([]byte(nil), laterFrame...)
	badCRC[len(badCRC)-1] ^= 0x01

	expect := func(t *testing.T, r io.Reader, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got\n%x\nwant\n%x", got, want)
		}
	}
	// A hung relay fails the test in seconds, not at go test's timeout.
	accept := func(t *testing.T, within time.Duration) (net.Conn, error) {
		t.Helper()
		ownerLn.(*net.TCPListener).SetDeadline(time.Now().Add(within))
		return ownerLn.Accept()
	}

	t.Run("two-message hello", func(t *testing.T) {
		peer, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		peer.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := peer.Write(frameOf(t, hello, report)); err != nil {
			t.Fatal(err)
		}
		if rest, err := io.ReadAll(peer); err != nil || len(rest) != 0 {
			t.Fatalf("after a two-message hello the peer read %x, %v; want a clean close", rest, err)
		}
		// The relay dials before it answers or closes, so a dial would be
		// queued on the listener by now.
		if owner, err := accept(t, 100*time.Millisecond); err == nil {
			owner.Close()
			t.Fatal("the relay dialed the owner for a refused hello")
		}
	})

	crcErrors := obs.GetCounter("protocol.codec.crc_errors")
	for _, tc := range []struct {
		name    string
		corrupt []byte
		crc     int64 // what protocol.codec.crc_errors counts for it
	}{{"bad magic", badMagic, 0}, {"oversize", oversize, 0}, {"CRC mismatch", badCRC, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			peer, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			peer.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := peer.Write(helloFrame); err != nil {
				t.Fatal(err)
			}
			owner, err := accept(t, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer owner.Close()
			owner.SetDeadline(time.Now().Add(5 * time.Second))
			expect(t, owner, helloFrame)
			if _, err := owner.Write(replyFrame); err != nil {
				t.Fatal(err)
			}
			expect(t, peer, replyFrame)
			if _, err := peer.Write(laterFrame); err != nil {
				t.Fatal(err)
			}
			expect(t, owner, laterFrame)

			before := crcErrors.Value()
			if _, err := peer.Write(tc.corrupt); err != nil {
				t.Fatal(err)
			}
			if rest, err := io.ReadAll(owner); err != nil || len(rest) != 0 {
				t.Fatalf("after the corrupt frame the owner read %x, %v; want a clean close", rest, err)
			}
			if got := crcErrors.Value() - before; got != tc.crc {
				t.Errorf("protocol.codec.crc_errors rose by %d, want %d", got, tc.crc)
			}
		})
	}
}
