package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/obs/flight"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
)

// TestTrainDemoModelKeepsEveryFlow: with its cut at the campus end, the
// streamed demo campus trains the model its whole flow list trains.
func TestTrainDemoModelKeepsEveryFlow(t *testing.T) {
	write := func(m *society.Model, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := society.WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cfg := demoCampus()
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := write(society.Train(tr, apps.BuildProfiles(tr.Flows, cfg.Epoch, apps.NewClassifier()), society.DefaultConfig()))
	if write(trainDemoModel()) != want {
		t.Error("the demo model differs from the one its campus's flow list trains")
	}
}

func TestRunDemoLLF(t *testing.T) {
	var buf bytes.Buffer
	if err := runProto([]string{"-demo", "-policy", "llf"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "registered 3 APs") {
		t.Errorf("missing AP registration: %s", out)
	}
	if !strings.Contains(out, "controller state after co-leaving") {
		t.Errorf("missing final state: %s", out)
	}
	if want := "  total: 4 users, 6291456 bytes served\n"; !strings.Contains(out, want) {
		t.Errorf("missing %q: %s", want, out)
	}
}

func TestRunDemoS3(t *testing.T) {
	var buf bytes.Buffer
	if err := runProto([]string{"-demo", "-policy", "s3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S3 policy") {
		t.Errorf("missing policy banner: %s", buf.String())
	}
}

// TestRunChaosSoak is the flight-ring smoke: the s3-live demo records a
// ring that decodes, and every protocol.* counter in it is present and
// never decreases from one sample to the next.
func TestRunChaosSoak(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := runProto([]string{
		"-demo", "-policy", "s3-live", "-flight-dir", dir, "-flight-every", "10ms",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	ring, err := flight.Decode(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ring.Samples); n < 2 {
		t.Fatalf("ring holds %d samples, want the initial snapshot and at least one more", n)
	}
	var counters []string
	for _, name := range ring.Columns() {
		if strings.HasPrefix(name, "protocol.") && ring.Kinds[name] == "c" {
			counters = append(counters, name)
		}
	}
	if len(counters) == 0 {
		t.Fatalf("no protocol.* counters in the ring; columns: %v", ring.Columns())
	}
	for _, name := range counters {
		for i := 1; i < len(ring.Samples); i++ {
			if prev, cur := ring.Samples[i-1].V[name], ring.Samples[i].V[name]; cur < prev {
				t.Fatalf("%s fell from %d to %d at sample %d", name, prev, cur, i)
			}
		}
	}
	first, last := ring.Samples[0].V, ring.Samples[len(ring.Samples)-1].V
	if got := last["protocol.ap.registered"] - first["protocol.ap.registered"]; got < 3 {
		t.Errorf("protocol.ap.registered rose by %d over the demo, want >= 3", got)
	}
}

// TestRunRejectsChaosFlag: the chaos soak is a test (TestChaosSoakRace
// in internal/protocol), not an s3proto mode.
func TestRunRejectsChaosFlag(t *testing.T) {
	var buf bytes.Buffer
	err := runProto([]string{"-chaos"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-chaos = %v, want an unknown-flag error", err)
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := runProto([]string{"-demo", "-policy", "bogus"}, &buf); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestBuildSelector(t *testing.T) {
	if sel, eng, err := buildSelector("llf", 0); err != nil || sel.Name() != "LLF" || eng != nil {
		t.Errorf("llf selector = %v, %v, %v", sel, eng, err)
	}
	if sel, eng, err := buildSelector("s3", 0); err != nil || sel.Name() != "S3" || eng != nil {
		t.Errorf("s3 selector = %v, %v, %v", sel, eng, err)
	}
	if _, _, err := buildSelector("nope", 0); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestBuildSelectorS3Live(t *testing.T) {
	sel, eng, err := buildSelector("s3-live", 128)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name() != "S3" {
		t.Errorf("selector = %q, want S3", sel.Name())
	}
	if eng == nil {
		t.Fatal("s3-live must return the engine")
	}
	// The batch-trained type prior is already published: the initial
	// snapshot exists and carries the trained type assignment.
	if s := eng.Snapshot(); s.Seq == 0 {
		t.Error("engine should have published the seeded snapshot")
	}
}

func TestRunDemoS3Live(t *testing.T) {
	var buf bytes.Buffer
	if err := runProto([]string{"-demo", "-policy", "s3-live", "-refresh-every", "10ms"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "live social state") {
		t.Errorf("missing live engine summary: %s", out)
	}
	if !strings.Contains(out, "society.inc.refreshes") {
		t.Errorf("missing society health metrics: %s", out)
	}
}

func TestRunClusterThreeNodes(t *testing.T) {
	t.Parallel() // mostly waiting out -cluster-hold
	root := t.TempDir()
	var wg sync.WaitGroup
	bufs := make([]bytes.Buffer, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runProto([]string{
				"-cluster", root,
				"-node-id", fmt.Sprintf("n%d", i),
				"-peers", "n0,n1,n2",
				"-policy", "llf",
				"-lease-ttl", "250ms",
				"-cluster-hold", "2s",
				"-fsync", "off",
			}, &bufs[i])
		}(i)
	}
	wg.Wait()
	for i := range errs {
		out := bufs[i].String()
		if errs[i] != nil {
			t.Fatalf("node %d: %v\n%s", i, errs[i], out)
		}
		if !strings.Contains(out, fmt.Sprintf("cluster node n%d", i)) {
			t.Errorf("node %d missing banner:\n%s", i, out)
		}
		if !strings.Contains(out, "cluster health:") ||
			!strings.Contains(out, fmt.Sprintf("%q: %q", "node_id", fmt.Sprintf("n%d", i))) {
			t.Errorf("node %d missing health identity block:\n%s", i, out)
		}
		if !strings.Contains(out, `"role": "owner"`) {
			t.Errorf("node %d never owned its home group:\n%s", i, out)
		}
		if !strings.Contains(out, "federation.lease_renewals") {
			t.Errorf("node %d missing federation health counters:\n%s", i, out)
		}
	}

	// The lease files outlive the nodes; -fed-status reads them back.
	var sb bytes.Buffer
	if err := runProto([]string{"-fed-status", root}, &sb); err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Group int    `json:"group"`
		Owner string `json:"owner"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(sb.Bytes(), &rows); err != nil {
		t.Fatalf("fed-status output not JSON: %v\n%s", err, sb.String())
	}
	if len(rows) != 3 {
		t.Fatalf("fed-status rows = %d, want 3:\n%s", len(rows), sb.String())
	}
	for _, r := range rows {
		if r.Owner != fmt.Sprintf("n%d", r.Group) || r.Epoch != 1 {
			t.Errorf("group %d settled on %s@%d, want its home owner at epoch 1", r.Group, r.Owner, r.Epoch)
		}
	}
}

// TestRunClusterFlagValidation: flags a mode would ignore, or that
// conflict, are refused before the flight recorder starts (and before
// the s3 policy trains its model).
func TestRunClusterFlagValidation(t *testing.T) {
	cluster := []string{"-cluster", t.TempDir(), "-node-id", "a", "-peers", "a,b"}
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-cluster", t.TempDir(), "-peers", "a,b"}, "node-id"},
		{[]string{"-cluster", t.TempDir(), "-node-id", "a"}, "peers"},
		{append(cluster, "-journal", t.TempDir()), "journal"},
		{append(cluster, "-demo"), "-demo"},
		{append(cluster, "-recover-check", "0"), "-recover-check"},
		{[]string{"-demo", "-drive", "127.0.0.1:1"}, "-drive"},
		{[]string{"-recover-check", "3"}, "requires -journal"},
		{[]string{"-demo", "-assoc-burst", "4"}, "-assoc-rate"},
		{[]string{"-demo", "-assoc-burst", "4", "-max-conns", "8"}, "-assoc-rate"},
		{[]string{"-demo", "-fsync", "sometimes"}, "fsync"},
	} {
		ring := filepath.Join(t.TempDir(), "flight")
		err := runProto(append(tc.args, "-flight-dir", ring), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
		if _, serr := os.Stat(ring); serr == nil {
			t.Errorf("%v: the flight recorder started before the flags were refused", tc.args)
		}
	}

	// An empty root has no leases yet: -fed-status prints an empty list.
	var sb bytes.Buffer
	if err := runProto([]string{"-fed-status", t.TempDir()}, &sb); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(sb.String()); s != "[]" {
		t.Errorf("fed-status on an empty root = %q, want []", s)
	}
}
