package faults

import (
	"bytes"
	"errors"
	"testing"
)

// memSink is an in-memory Sink recording everything written through.
type memSink struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memSink) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memSink) Sync() error                 { m.syncs++; return nil }
func (m *memSink) Close() error                { m.closed = true; return nil }

func TestTransparentWhenZero(t *testing.T) {
	sink := &memSink{}
	f := WrapFile(sink, 0, Const(FileConfig{}))
	n, err := f.Write([]byte("hello"))
	if n != 5 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.buf.String() != "hello" || sink.syncs != 1 || !sink.closed {
		t.Fatalf("sink state: %q syncs=%d closed=%v", sink.buf.String(), sink.syncs, sink.closed)
	}
}

func TestTornAtByteClipsSilently(t *testing.T) {
	sink := &memSink{}
	f := WrapFile(sink, 0, Const(FileConfig{TornAtByte: 7}))
	for _, chunk := range []string{"abcde", "fghij", "klmno"} {
		n, err := f.Write([]byte(chunk))
		if n != len(chunk) || err != nil {
			t.Fatalf("Write(%q) = %d, %v (torn writes must report success)", chunk, n, err)
		}
	}
	if sink.buf.String() != "abcdefg" {
		t.Fatalf("sink holds %q, want first 7 bytes only", sink.buf.String())
	}
	if f.Written() != 15 {
		t.Fatalf("Written = %d, want 15 (writer-believed bytes)", f.Written())
	}
}

func TestShortWriteReturnsPrefixAndError(t *testing.T) {
	sink := &memSink{}
	f := WrapFile(sink, 3, Const(FileConfig{ShortWriteProb: 1}))
	p := []byte("0123456789")
	n, err := f.Write(p)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n < 0 || n >= len(p) {
		t.Fatalf("short write count %d must be a strict prefix of %d", n, len(p))
	}
	if sink.buf.Len() != n {
		t.Fatalf("sink received %d bytes, short count was %d", sink.buf.Len(), n)
	}
}

func TestBitFlipDamagesExactlyOneBit(t *testing.T) {
	sink := &memSink{}
	f := WrapFile(sink, 5, Const(FileConfig{BitFlipProb: 1}))
	p := bytes.Repeat([]byte{0x00}, 32)
	if _, err := f.Write(p); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, b := range sink.buf.Bytes() {
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", diff)
	}
	for i, b := range p {
		if b != 0 {
			t.Fatalf("caller's buffer mutated at %d", i)
		}
	}
}

func TestFailSyncAfter(t *testing.T) {
	sink := &memSink{}
	f := WrapFile(sink, 0, Const(FileConfig{FailSyncAfter: 2}))
	for i := 0; i < 2; i++ {
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 3 = %v, want ErrInjected", err)
	}
}

// TestSeededReplay: identical seeds produce identical fault schedules.
func TestSeededReplay(t *testing.T) {
	run := func() string {
		sink := &memSink{}
		f := WrapFile(sink, 11, Const(FileConfig{ShortWriteProb: 0.3, BitFlipProb: 0.3}))
		for i := 0; i < 20; i++ {
			f.Write(bytes.Repeat([]byte{byte(i)}, 16))
		}
		return sink.buf.String()
	}
	if run() != run() {
		t.Fatal("same seed produced different byte streams")
	}
}

// TestFileFollowsSource: a file wrapper consults its source per
// operation, so a device can fail its fsyncs for a while and recover
// without the file being re-wrapped.
func TestFileFollowsSource(t *testing.T) {
	sink := &memSink{}
	failing := true
	f := WrapFile(sink, 0, func() FileConfig {
		if failing {
			return FileConfig{SyncErrProb: 1}
		}
		return FileConfig{}
	})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("failing-phase sync = %v, want ErrInjected", err)
	}
	failing = false
	if err := f.Sync(); err != nil {
		t.Fatalf("recovered sync: %v", err)
	}
	if sink.syncs != 1 {
		t.Fatalf("sink saw %d syncs, want 1 (the failed one never reaches it)", sink.syncs)
	}
}
