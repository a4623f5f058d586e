package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		Topology: sampleTopology(),
		Sessions: []Session{
			{User: "u1", AP: "ap-1", Controller: "ctl-A", ConnectAt: 100, DisconnectAt: 200, Bytes: 5000},
			{User: "u2", AP: "ap-2", Controller: "ctl-A", ConnectAt: 150, DisconnectAt: 400, Bytes: 123},
		},
		Flows: []Flow{
			{User: "u1", Start: 100, End: 110, Proto: "tcp", SrcPort: 50000, DstPort: 443, Bytes: 900},
			{User: "u2", Start: 200, End: 210, Proto: "udp", SrcPort: 50001, DstPort: 53, Bytes: 80},
		},
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
}

func TestReadJSONLinesMalformed(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"garbage", "not json\n"},
		{"unknown kind", `{"kind":"mystery"}` + "\n"},
		{"session without payload", `{"kind":"session"}` + "\n"},
		{"flow without payload", `{"kind":"flow"}` + "\n"},
		{"topology without payload", `{"kind":"topology"}` + "\n"},
		{"session ending before it starts", `{"kind":"session","session":{"user":"u","ap":"a","connect_at":20,"disconnect_at":10}}` + "\n"},
		{"session on an AP the topology lacks", `{"kind":"topology","topology":{"aps":[{"id":"a"}]}}` + "\n" +
			`{"kind":"session","session":{"user":"u","ap":"b"}}` + "\n"},
		{"flow ending before it starts", `{"kind":"flow","flow":{"user":"u","start":20,"end":10}}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSONLines(strings.NewReader(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadJSONLinesSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	withBlanks := strings.ReplaceAll(buf.String(), "\n", "\n\n")
	got, err := ReadJSONLines(strings.NewReader(withBlanks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sessions) != 2 {
		t.Errorf("sessions = %d, want 2", len(got.Sessions))
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	tr := sampleTrace()
	if err := SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file should error")
	}
}

// TestSaveFileWritesJSONLinesBytes: SaveFile hands atomicfile's
// unbuffered temp file to WriteJSONLines, which buffers its own lines;
// the file holds exactly the bytes WriteJSONLines writes to a buffer,
// here for 2 000 flows, ≈ 200 KB, many times the write buffer.
func TestSaveFileWritesJSONLinesBytes(t *testing.T) {
	tr := sampleTrace()
	for i := 0; i < 2000; i++ {
		tr.Flows = append(tr.Flows, Flow{User: UserID(fmt.Sprintf("u%d", i%50)), Start: int64(i), End: int64(i + 10),
			Proto: "tcp", SrcPort: 40000 + i, DstPort: 443, Bytes: int64(1000 + i)})
	}
	var want bytes.Buffer
	if err := WriteJSONLines(&want, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 100_000 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("SaveFile wrote %d bytes, WriteJSONLines %d; equal: %v", len(got), want.Len(), bytes.Equal(got, want.Bytes()))
	}
}

func TestLoadFileTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.jsonl")
	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Chop the file mid-record to simulate a truncated write.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("truncated file should error")
	}
}

// TestSessionsCSVRoundTrip pins the session table's bytes: the header,
// then one row per session in trace order, in the column order the
// header names. (CSV is written for external tools; nothing here reads
// it back.)
func TestSessionsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSessionsCSV(&buf, sampleTrace().Sessions); err != nil {
		t.Fatal(err)
	}
	want := `user,ap,controller,connect_at,disconnect_at,bytes
u1,ap-1,ctl-A,100,200,5000
u2,ap-2,ctl-A,150,400,123
`
	if buf.String() != want {
		t.Errorf("sessions CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestFlowsCSVRoundTrip pins the flow table's bytes the same way.
func TestFlowsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFlowsCSV(&buf, sampleTrace().Flows); err != nil {
		t.Fatal(err)
	}
	want := `user,start,end,proto,src_port,dst_port,bytes
u1,100,110,tcp,50000,443,900
u2,200,210,udp,50001,53,80
`
	if buf.String() != want {
		t.Errorf("flows CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, &Trace{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sessions) != 0 || len(got.Flows) != 0 {
		t.Error("empty trace should stay empty")
	}
}
