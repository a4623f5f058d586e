package main

import (
	"bytes"
	"fmt"
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

// TestRunSimRefusesInvalidTrace: a trace with a session that ends before
// it starts — in the training days, which no replay reads — is refused at
// load, naming the session, before anything prints.
func TestRunSimRefusesInvalidTrace(t *testing.T) {
	path, names := writeBackwardsTrace(t)
	var buf bytes.Buffer
	if err := runSim([]string{"-trace", path, "-train", "5", "-fig", "12"}, &buf); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("sim -fig 12: err = %v, want one naming %q", err, names)
	}
	if buf.Len() != 0 {
		t.Errorf("sim printed %q from an invalid trace", buf.String())
	}
}

// TestRunSimEpoch: a trace stamped in real Unix time splits at -epoch
// plus the training days, so shifting a trace and its -epoch by the same
// whole days leaves Fig 12 as it was; without -epoch the split is empty,
// and the error names -epoch.
func TestRunSimEpoch(t *testing.T) {
	const shift = 1700006400 // 2023-11-15 00:00 UTC, a whole number of days
	tr := smallTrace(t)
	plain := saveTrace(t, tr)
	for i := range tr.Sessions {
		tr.Sessions[i].ConnectAt += shift
		tr.Sessions[i].DisconnectAt += shift
	}
	for i := range tr.Flows {
		tr.Flows[i].Start += shift
		tr.Flows[i].End += shift
	}
	shifted := saveTrace(t, tr)
	fig12 := func(args ...string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := runSim(append(args, "-train", "5", "-fig", "12"), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if want, got := fig12("-trace", plain), fig12("-trace", shifted, "-epoch", fmt.Sprint(shift)); got != want {
		t.Errorf("shifted trace at -epoch %d:\n%s\nunshifted:\n%s", shift, got, want)
	}
	var buf bytes.Buffer
	if err := runSim([]string{"-trace", shifted, "-train", "5", "-fig", "12"}, &buf); err == nil || !strings.Contains(err.Error(), "-epoch 0") {
		t.Errorf("shifted trace without -epoch: err = %v, want an empty split naming -epoch", err)
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
