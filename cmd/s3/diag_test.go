package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/obs/flight"
)

// writeRing hand-crafts a ring with controlled timestamps (1s apart): a
// counter climbing 0→3 and a gauge descending 10→7, five samples.
func writeRing(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	frames := [][]byte{
		[]byte(`{"t":1000,"full":true,"v":{"diag.count":0,"diag.gauge":10},"k":{"diag.count":"c","diag.gauge":"g"}}`),
		[]byte(`{"t":2000,"v":{"diag.count":1,"diag.gauge":-1}}`),
		[]byte(`{"t":3000,"v":{"diag.count":1,"diag.gauge":-1}}`),
		[]byte(`{"t":4000,"v":{"diag.count":1,"diag.gauge":-1}}`),
		[]byte(`{"t":5000,"v":{}}`),
	}
	var raw []byte
	for _, f := range frames {
		raw = append(raw, journal.AppendFrame(nil, f)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "flight-0000000001.fr"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recordRing produces a ring through the real recorder (timestamps are
// wall-clock, so only decode-level properties are asserted on it).
func recordRing(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	reg := &obs.Registry{}
	c := reg.GetCounter("diag.count", "test counter")
	rec, err := flight.Start(flight.Options{Dir: dir, Registry: reg, Every: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		c.Inc()
		rec.Sample()
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSummary(t *testing.T) {
	dir := writeRing(t)
	var buf bytes.Buffer
	if err := runDiag([]string{"-dir", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flight ring:", "diag.count", "diag.gauge", "cum", "gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCSVAndMatch(t *testing.T) {
	dir := writeRing(t)
	var buf bytes.Buffer
	if err := runDiag([]string{"-dir", dir, "-format", "csv", "-match", "diag.count"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "unix_ms,column,value" {
		t.Fatalf("csv header = %q", lines[0])
	}
	// 5 samples (initial full + 3 + stop), one matching column each.
	if len(lines) != 6 {
		t.Fatalf("csv rows = %d, want 6:\n%s", len(lines), buf.String())
	}
	if !strings.HasSuffix(lines[len(lines)-1], ",diag.count,3") {
		t.Errorf("last row = %q, want final value 3", lines[len(lines)-1])
	}
	for _, ln := range lines[1:] {
		if strings.Contains(ln, "diag.gauge") {
			t.Errorf("-match leaked other column: %q", ln)
		}
	}
}

func TestJSON(t *testing.T) {
	dir := writeRing(t)
	var buf bytes.Buffer
	if err := runDiag([]string{"-dir", dir, "-format", "json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var samples []struct {
		UnixMS int64            `json:"unix_ms"`
		Values map[string]int64 `json:"values"`
	}
	if err := json.Unmarshal(buf.Bytes(), &samples); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Values["diag.count"] != 3 || last.Values["diag.gauge"] != 7 {
		t.Errorf("final values = %v", last.Values)
	}
}

func TestRates(t *testing.T) {
	dir := writeRing(t)
	var buf bytes.Buffer
	if err := runDiag([]string{"-dir", dir, "-format", "rates", "-window", "2s"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "window_start_ms,column,rate_per_s" {
		t.Fatalf("rates header = %q", lines[0])
	}
	found := false
	for _, ln := range lines[1:] {
		if strings.Contains(ln, "diag.gauge") {
			t.Errorf("rates emitted for a gauge: %q", ln)
		}
		if strings.Contains(ln, "diag.count") {
			found = true
		}
	}
	if !found {
		t.Errorf("no rate rows for diag.count:\n%s", buf.String())
	}
}

func TestCheckOK(t *testing.T) {
	dir := recordRing(t)
	var buf bytes.Buffer
	if err := runDiag([]string{"-dir", dir, "-check"}, &buf); err != nil {
		t.Fatalf("check on a clean ring: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "check ok:") {
		t.Errorf("check output = %q", buf.String())
	}
}

// TestCheckCatchesRegression hand-crafts a ring whose cumulative column
// decreases without a full-snapshot boundary; -check must fail.
func TestCheckCatchesRegression(t *testing.T) {
	dir := t.TempDir()
	frames := [][]byte{
		[]byte(`{"t":1000,"full":true,"v":{"bad.count":10},"k":{"bad.count":"c"}}`),
		[]byte(`{"t":2000,"v":{"bad.count":-5}}`),
	}
	var raw []byte
	for _, f := range frames {
		raw = append(raw, journal.AppendFrame(nil, f)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "flight-0000000001.fr"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := runDiag([]string{"-dir", dir, "-check"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "monotonicity") {
		t.Fatalf("check err = %v, want monotonicity violation\n%s", err, buf.String())
	}
}

func TestEmptyRingFails(t *testing.T) {
	if err := runDiag([]string{"-dir", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty ring must be an error")
	}
}

func TestPositionalDir(t *testing.T) {
	dir := recordRing(t)
	var buf bytes.Buffer
	if err := runDiag([]string{dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diag.count") {
		t.Errorf("positional dir output:\n%s", buf.String())
	}
}

// jsonJournal writes a journal directory in the layout of the releases
// that stored records as JSON: a checkpoint at seq 8, one record in the
// segment before it and two after it, each record one JSON object in a
// frame.
func jsonJournal(t *testing.T) string {
	dir := t.TempDir()
	record := func(seq int) []byte {
		return []byte(`{"seq":` + strconv.Itoa(seq) + `,"op":"disassoc","ts":` + strconv.Itoa(100+seq) + `,"user":"u-1","ap":"ap-0"}`)
	}
	for name, frames := range map[string][][]byte{
		"ckpt-00000000000000000008.snap": {[]byte(`{"version":1}`)},
		"seg-00000000000000000005.wal":   {record(8)},
		"seg-00000000000000000009.wal":   {record(9), record(10)},
	} {
		var data []byte
		for _, p := range frames {
			data = journal.AppendFrame(data, p)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestJournalDump: -journal prints the checkpoint recovery would use and
// one JSON line per record, whichever layout stored it, and marks what
// it could not read where it found it.
func TestJournalDump(t *testing.T) {
	// A journal this release wrote: 5 records, a checkpoint after the
	// third, two segments.
	written := func(t *testing.T) string {
		dir := t.TempDir()
		j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff, CheckpointEvery: 3,
			State: func(w io.Writer) error { _, err := w.Write([]byte("state")); return err }})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			rec := journal.Record{Op: journal.OpAssoc, TS: int64(100 + i),
				Placements: []journal.Placement{{User: "u-1", AP: "ap-0", DemandBps: 5}}}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// damaged rewrites the newest segment of a written journal.
	damaged := func(edit func(seg []byte) []byte) func(*testing.T) string {
		return func(t *testing.T) string {
			dir := written(t)
			path := filepath.Join(dir, "seg-00000000000000000004.wal")
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, edit(seg), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	// An AP lease expiry, which only a release that leased APs wrote:
	// recovery refuses it, and the dump still prints it.
	expired := func(t *testing.T) string {
		dir := t.TempDir()
		j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []journal.Record{{Op: journal.OpRegister, TS: 100, AP: "ap-0", CapacityBps: 1e6},
			{Op: journal.OpExpire, TS: 200, AP: "ap-0"}} {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name    string
		dir     func(*testing.T) string
		records int
		want    []string // substrings of the output, in order
	}{
		{"written", written, 5, []string{"# checkpoint seq 3 ", "# seg-00000000000000000001.wal",
			`{"seq":1,"op":"assoc","ts":100,"placements":[{"user":"u-1","ap":"ap-0","demand_bps":5}]}`,
			"# seg-00000000000000000004.wal", `{"seq":5,`}},
		// JSON records, as the releases before the binary layout framed
		// them: named as what they are to this one.
		{"previous release", jsonJournal, 0,
			[]string{"# checkpoint seq 8 ", "# undecodable: frame at byte 0: journal: decode record: unknown version 123",
				"# seg-00000000000000000009.wal", "# undecodable: frame at byte 71: "}},
		{"flipped payload byte", damaged(func(seg []byte) []byte { seg[journal.FrameHeaderLen+4] ^= 1; return seg }), 4,
			[]string{`{"seq":3,`, "# seg-00000000000000000004.wal", "# corrupt: bytes 0-", `{"seq":5,`}},
		{"torn tail", damaged(func(seg []byte) []byte { return seg[:len(seg)-3] }), 4,
			[]string{`{"seq":4,`, "# torn tail: "}},
		{"trailing garbage", damaged(func(seg []byte) []byte { return append(seg, "no frame here"...) }), 5,
			[]string{`{"seq":5,`, "# corrupt: 13 bytes at byte "}},
		{"AP lease expiry", expired, 2, []string{`{"seq":1,"op":"register",`, `{"seq":2,"op":"expire","ts":200,"ap":"ap-0"}`}},
		{"newer layout", damaged(func(seg []byte) []byte { return journal.AppendFrame(seg, []byte{0x7f, 1, 0, 6}) }), 5,
			[]string{`{"seq":5,`, "# undecodable: frame at byte "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runDiag([]string{"-journal", tc.dir(t)}, &buf); err != nil {
				t.Fatal(err)
			}
			out, records := buf.String(), 0
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				var r journal.Record
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatalf("line %q is neither a '#' remark nor a record: %v", line, err)
				}
				records++
			}
			if records != tc.records {
				t.Errorf("%d record lines, want %d", records, tc.records)
			}
			rest := out
			for _, want := range tc.want {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("output lacks %q (after the earlier matches):\n%s", want, out)
				}
				rest = rest[i+len(want):]
			}
		})
	}
	if err := runDiag([]string{"-journal", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("an empty directory must be an error")
	}
}
