package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestRunGeneratesTrace: the summary reports the generated topology,
// whether its sizes come from flags or from a preset.
func TestRunGeneratesTrace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		topology string
		aps      int
	}{
		{"flags", []string{"-users", "40", "-buildings", "2", "-aps", "2", "-days", "4", "-seed", "7"},
			"topology:    2 buildings, 4 APs", 4},
		{"preset", []string{"-preset", "office", "-users", "40", "-days", "4"},
			"topology:    2 buildings, 16 APs", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "campus.jsonl")
			var buf bytes.Buffer
			if err := runGen(append([]string{"-out", out}, tc.args...), &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "sessions:") || !strings.Contains(buf.String(), tc.topology) {
				t.Errorf("summary lacks sessions or %q:\n%s", tc.topology, buf.String())
			}
			tr, err := trace.LoadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("generated trace invalid: %v", err)
			}
			if len(tr.Topology.APs) != tc.aps {
				t.Errorf("APs = %d, want %d", len(tr.Topology.APs), tc.aps)
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := runGen([]string{"-users", "0"}, &buf); err == nil {
		t.Error("invalid config should error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := runGen([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
}
