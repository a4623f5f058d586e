package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
