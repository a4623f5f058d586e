package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAllAnalyses(t *testing.T) {
	path := writeSmallTrace(t)
	var buf bytes.Buffer
	if err := runAnalyze([]string{"-trace", path, "-all"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 2", "Fig 3", "Fig 4", "Fig 5",
		"Fig 6", "Fig 7", "Fig 8", "Table I"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSingleFigure(t *testing.T) {
	path := writeSmallTrace(t)
	var buf bytes.Buffer
	if err := runAnalyze([]string{"-trace", path, "-fig", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 5") {
		t.Error("missing Fig 5")
	}
	if strings.Contains(buf.String(), "Fig 2") {
		t.Error("unexpected Fig 2")
	}
}

func TestRunMissingTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := runAnalyze([]string{"-fig", "2"}, &buf); err == nil {
		t.Error("missing trace should error")
	}
	if err := runAnalyze([]string{"-trace", "/nonexistent.jsonl", "-fig", "2"}, &buf); err == nil {
		t.Error("unreadable trace should error")
	}
}

// TestRunAnalyzeRefusesInvalidTrace: a trace with a session that ends
// before it starts is refused at load, naming the session, before any
// figure prints.
func TestRunAnalyzeRefusesInvalidTrace(t *testing.T) {
	path, names := writeBackwardsTrace(t)
	var buf bytes.Buffer
	if err := runAnalyze([]string{"-trace", path, "-fig", "5"}, &buf); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("analyze -fig 5: err = %v, want one naming %q", err, names)
	}
	if buf.Len() != 0 {
		t.Errorf("analyze printed %q from an invalid trace", buf.String())
	}
}

// TestRunAnalyzeRefusesUnservable: a figure or table s3 analyze does not
// have errors, naming the flag, instead of exiting cleanly with no output.
func TestRunAnalyzeRefusesUnservable(t *testing.T) {
	path := writeSmallTrace(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-trace", path, "-fig", "9"}, "-fig 9"},
		{[]string{"-trace", path, "-fig", "1"}, "-fig 1"},
		{[]string{"-trace", path, "-table", "2"}, "-table 2"},
	} {
		var buf bytes.Buffer
		err := runAnalyze(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("s3 analyze %q: err = %v, want one naming %s", tc.args, err, tc.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("s3 analyze %q printed %q before refusing", tc.args, buf.String())
		}
	}
}
