package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestTrainAndInspect(t *testing.T) {
	t.Parallel() // a default campus: CPU that overlaps the cluster test's waiting
	dir := t.TempDir()
	model := filepath.Join(dir, "m.json")
	var buf bytes.Buffer
	err := runModel([]string{"-train", "-generate", "-seed", "3", "-out", model}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pair relationships") {
		t.Errorf("train output: %s", buf.String())
	}
	buf.Reset()
	if err := runModel([]string{"-inspect", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Social graph") {
		t.Errorf("inspect output: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "clustering coefficient") {
		t.Errorf("missing structure stats: %s", buf.String())
	}
}

func TestTrainNeedsInput(t *testing.T) {
	var buf bytes.Buffer
	if err := runModel([]string{"-train"}, &buf); err == nil {
		t.Error("train without input should error")
	}
}

// TestTrainRefusesInvalidTrace: a trace with a session that ends before
// it starts is refused at load, naming the session, and no model is
// written.
func TestTrainRefusesInvalidTrace(t *testing.T) {
	path, names := writeBackwardsTrace(t)
	out := filepath.Join(t.TempDir(), "m.json")
	var buf bytes.Buffer
	if err := runModel([]string{"-train", "-trace", path, "-out", out}, &buf); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("model -train: err = %v, want one naming %q", err, names)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("model -train wrote %s from an invalid trace (stat: %v)", out, err)
	}
}

func TestInspectMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := runModel([]string{"-inspect", "/nonexistent.json"}, &buf); err == nil {
		t.Error("missing model should error")
	}
}

func TestInspectWithDOT(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "m.json")
	dot := filepath.Join(dir, "g.dot")
	var buf bytes.Buffer
	if err := runModel([]string{"-train", "-trace", writeSmallTrace(t), "-out", model}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := runModel([]string{"-inspect", model, "-dot", dot}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph \"s3\"") {
		t.Errorf("DOT content wrong: %.100s", data)
	}
}

// TestInspectCountsPriorOnlyEdges: on a model whose α·T alone crosses the
// threshold (type 0: 0.5 · 0.8 = 0.4 > 0.3), the report and the DOT file
// show the graph CloseFriendRows lays out — the prior-only edges a–c and
// b–c next to the supported a–b, and d isolated — not the supported
// pairs alone.
func TestInspectCountsPriorOnlyEdges(t *testing.T) {
	m, err := society.NewModel([]society.PairStat{{Pair: society.MakePair("a", "b"), Encounters: 2, CoLeaves: 1, Prob: 0.5, Supported: true}},
		map[trace.UserID]int{"a": 0, "b": 0, "c": 0, "d": 1}, [][]float64{{0.8, 0.1}, {0.1, 0.2}}, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	users, start, _, _ := m.CloseFriendRows(0.3)
	edges := start[len(users)] / 2
	if edges != 3 {
		t.Fatalf("CloseFriendRows lays out %d edges, want 3", edges)
	}
	dir := t.TempDir()
	path, dot := filepath.Join(dir, "m.json"), filepath.Join(dir, "g.dot")
	if err := society.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runModel([]string{"-inspect", path, "-dot", dot}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("users: %d   relationships: %d ", len(users), edges); !strings.Contains(buf.String(), want) {
		t.Errorf("report does not say %q:\n%s", want, buf.String())
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), " -- "); n != edges {
		t.Errorf("DOT file has %d edges, CloseFriendRows %d:\n%s", n, edges, data)
	}
	for _, u := range users {
		if !strings.Contains(string(data), fmt.Sprintf("  %q;\n", string(u))) {
			t.Errorf("DOT file lacks vertex %s:\n%s", u, data)
		}
	}
}
