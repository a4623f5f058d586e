package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestSummaryValidateCount(t *testing.T) {
	path := writeSmallTrace(t)
	var buf bytes.Buffer
	if err := runTrace([]string{"-in", path, "-summary", "-validate", "-count"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace is valid", "sessions:", "peak arrival hour"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSliceAndCSVExports(t *testing.T) {
	path := writeSmallTrace(t)
	dir := t.TempDir()
	sliced := filepath.Join(dir, "slice.jsonl")
	sessions := filepath.Join(dir, "s.csv")
	flows := filepath.Join(dir, "f.csv")
	var buf bytes.Buffer
	err := runTrace([]string{
		"-in", path,
		"-slice-start", "0", "-slice-end", "86400", "-out", sliced,
		"-sessions-csv", sessions, "-flows-csv", flows,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.LoadFile(sliced)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sessions) == 0 {
		t.Error("sliced trace empty")
	}
	for _, s := range got.Sessions {
		if s.ConnectAt >= 86400 {
			t.Errorf("session outside slice: %+v", s)
		}
	}
	for _, p := range []string{sessions, flows} {
		if _, err := trace.LoadFile(p); err == nil {
			t.Errorf("%s should not be a jsonl trace", p)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(nil, &buf); err == nil {
		t.Error("missing -in should error")
	}
	path := writeSmallTrace(t)
	if err := runTrace([]string{"-in", path}, &buf); err == nil {
		t.Error("no action should error")
	}
	if err := runTrace([]string{"-in", path, "-slice-start", "5"}, &buf); err == nil {
		t.Error("partial slice args should error")
	}
	if err := runTrace([]string{"-in", "/nope.jsonl", "-summary"}, &buf); err == nil {
		t.Error("missing file should error")
	}
	bad, names := writeBackwardsTrace(t)
	if err := runTrace([]string{"-in", bad, "-validate"}, &buf); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("-validate of an invalid trace: err = %v, want one naming %q", err, names)
	}
}

// TestValidateRefusesForeignController: a session must be on its AP's
// controller. The 12-day small campus (s3 gen -users 150 -buildings 3
// -days 12) with session 0 moved from ctl-01 to ctl-00 is refused, and the
// error names the session; the simulator would place it among ctl-00's APs.
func TestValidateRefusesForeignController(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.Buildings, cfg.Days = 150, 3, 12
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := tr.Sessions[0].Controller; c != "ctl-01" {
		t.Fatalf("session 0 is on %s; the repro relabels one on ctl-01", c)
	}
	tr.Sessions[0].Controller = "ctl-00"
	var buf bytes.Buffer
	if err := runTrace([]string{"-in", saveTrace(t, tr), "-validate"}, &buf); err == nil || !strings.Contains(err.Error(), "session 0: controller ctl-00") {
		t.Errorf("-validate of a session on another AP's controller: err = %v, want one naming session 0", err)
	}
}
