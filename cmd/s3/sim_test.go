package main

import (
	"bytes"
	"strings"
	"testing"
)

func simArgs(extra ...string) []string {
	base := []string{
		"-generate", "-users", "120", "-buildings", "3", "-aps", "3",
		"-days", "10", "-train", "7",
	}
	return append(base, extra...)
}

func TestRunFig12(t *testing.T) {
	var buf bytes.Buffer
	if err := runSim(simArgs("-fig", "12"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 12") {
		t.Errorf("missing Fig 12 in output: %s", buf.String())
	}
}

func TestRunAblationGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := runSim(simArgs("-ablation", "guard"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "balance guard") {
		t.Error("missing guard ablation output")
	}
}

// TestRunUnknownAblation: a name that is not an ablation — a typo or the
// removed "temporal" — errors and lists the ones there are.
func TestRunUnknownAblation(t *testing.T) {
	const want = "(want baselines, staleness, guard, batch, metrics or all)"
	for _, name := range []string{"bogus", "temporal"} {
		var buf bytes.Buffer
		err := runSim(simArgs("-ablation", name), &buf)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-ablation %s: err = %v, want one listing %s", name, err, want)
		}
	}
}

func TestRunNoInput(t *testing.T) {
	var buf bytes.Buffer
	if err := runSim([]string{"-fig", "12"}, &buf); err == nil {
		t.Error("missing input should error")
	}
}

// TestRunSimRefusesUnservable: a request s3 sim cannot serve errors,
// naming the flag, instead of exiting cleanly with no output (or, for
// -replicate with -trace, replicating generated campuses instead).
func TestRunSimRefusesUnservable(t *testing.T) {
	path := writeSmallTrace(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{simArgs("-fig", "13"), "-fig 13"},
		{simArgs("-fig", "-1"), "-fig -1"},
		{simArgs("-replicate", "-2"), "-replicate -2"},
		{[]string{"-trace", path, "-train", "5", "-replicate", "2"}, "-replicate"},
	} {
		var buf bytes.Buffer
		err := runSim(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("s3 sim %q: err = %v, want one naming %s", tc.args, err, tc.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("s3 sim %q printed %q before refusing", tc.args, buf.String())
		}
	}
}
