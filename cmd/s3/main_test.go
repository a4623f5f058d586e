package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// smallTrace is a 120-user campus (3 buildings × 3 APs, 8 days).
func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users = 120
	cfg.Buildings = 3
	cfg.APsPerBuilding = 3
	cfg.Days = 8
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// saveTrace writes tr as a trace file and returns its path.
func saveTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSmallTrace writes smallTrace as a trace file.
func writeSmallTrace(t *testing.T) string { return saveTrace(t, smallTrace(t)) }

// writeBackwardsTrace writes smallTrace with its first session, one of
// the first training day, ending an hour before it starts. It returns the
// path and what an error refusing the file must say to name the session.
func writeBackwardsTrace(t *testing.T) (path, names string) {
	t.Helper()
	tr := smallTrace(t)
	s := &tr.Sessions[0]
	s.DisconnectAt = s.ConnectAt - 3600
	return saveTrace(t, tr), fmt.Sprintf("session 0: trace: session for %s ends (%d) before it starts (%d)",
		s.User, s.DisconnectAt, s.ConnectAt)
}

// TestDispatch: without a known subcommand the error names all seven;
// with one, the rest of the arguments go to it.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-generate", "-all"}} {
		err := run(args, io.Discard)
		if err == nil {
			t.Errorf("run(%q) succeeded", args)
			continue
		}
		for _, sub := range []string{"gen", "trace", "analyze", "model", "sim", "proto", "diag"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("run(%q) = %q, which does not name %s", args, err, sub)
			}
		}
	}
	if err := run([]string{"trace"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Errorf("run(trace) = %v, want s3 trace's missing -in error", err)
	}
}

// TestRunNothingToDo: a subcommand given no action says so.
func TestRunNothingToDo(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}{
		{"sim", runSim, []string{"-generate"}},
		{"analyze", runAnalyze, nil},
		{"model", runModel, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), "nothing to do") {
				t.Errorf("no action: err = %v, want a nothing-to-do error", err)
			}
		})
	}
}

// TestRuntimeFlags: every subcommand with the runtime flag set writes the
// -obs JSON file and a -flight-dir ring that s3 diag -check accepts.
func TestRuntimeFlags(t *testing.T) {
	path := writeSmallTrace(t)
	for _, tc := range []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}{
		{"analyze", runAnalyze, []string{"-trace", path, "-fig", "5"}},
		{"model", runModel, []string{"-train", "-trace", path, "-out", filepath.Join(t.TempDir(), "m.json")}},
		{"sim", runSim, simArgs("-fig", "12")},
		{"proto", runProto, []string{"-demo", "-policy", "llf"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obsPath := filepath.Join(t.TempDir(), "obs.json")
			ring := filepath.Join(t.TempDir(), "flight")
			args := append(tc.args, "-obs", obsPath, "-flight-dir", ring, "-flight-every", "10ms")
			if err := tc.run(args, io.Discard); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(obsPath)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(data, &doc); err != nil || len(doc) == 0 {
				t.Errorf("-obs file is not a JSON object (%v):\n%.200s", err, data)
			}
			var buf bytes.Buffer
			if err := run([]string{"diag", "-dir", ring, "-check"}, &buf); err != nil {
				t.Errorf("s3 diag -check: %v\n%s", err, buf.String())
			}
		})
	}
}
