package socialgraph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func triangleWithTail() *Graph {
	g := New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("a", "c", 1)
	g.AddEdge("c", "d", 1) // tail
	return g
}

func TestLocalClusteringCoefficient(t *testing.T) {
	g := triangleWithTail()
	// a's neighbours {b, c} are connected: coefficient 1.
	if got := g.LocalClusteringCoefficient("a"); got != 1 {
		t.Errorf("C(a) = %v, want 1", got)
	}
	// c's neighbours {a, b, d}: only a-b connected among 3 pairs.
	if got := g.LocalClusteringCoefficient("c"); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("C(c) = %v, want 1/3", got)
	}
	// d has degree 1: 0 by convention.
	if got := g.LocalClusteringCoefficient("d"); got != 0 {
		t.Errorf("C(d) = %v, want 0", got)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	g := triangleWithTail()
	want := (1.0 + 1.0 + 1.0/3.0 + 0.0) / 4.0
	if got := g.ClusteringCoefficient(); math.Abs(got-want) > 1e-12 {
		t.Errorf("C = %v, want %v", got, want)
	}
	if got := New().ClusteringCoefficient(); got != 0 {
		t.Errorf("empty C = %v, want 0", got)
	}
}

func TestDegreeHistogramAndMeanDegree(t *testing.T) {
	g := triangleWithTail()
	h := g.DegreeHistogram()
	if h[2] != 2 || h[3] != 1 || h[1] != 1 {
		t.Errorf("histogram = %v", h)
	}
	// 4 edges × 2 / 4 vertices = 2.
	if got := g.MeanDegree(); got != 2 {
		t.Errorf("mean degree = %v, want 2", got)
	}
	if got := New().MeanDegree(); got != 0 {
		t.Errorf("empty mean degree = %v", got)
	}
}

func TestAveragePathLength(t *testing.T) {
	g := triangleWithTail()
	// Distances: a-b 1, a-c 1, a-d 2, b-c 1, b-d 2, c-d 1 ⇒ mean 8/6.
	mean, pairs := g.AveragePathLength()
	if pairs != 6 {
		t.Fatalf("pairs = %d, want 6", pairs)
	}
	if math.Abs(mean-8.0/6.0) > 1e-12 {
		t.Errorf("APL = %v, want %v", mean, 8.0/6.0)
	}
	// Disconnected pairs excluded.
	g.AddVertex("island")
	_, pairs = g.AveragePathLength()
	if pairs != 6 {
		t.Errorf("pairs with island = %d, want 6", pairs)
	}
	// Empty graph.
	mean, pairs = New().AveragePathLength()
	if mean != 0 || pairs != 0 {
		t.Errorf("empty APL = %v, %d", mean, pairs)
	}
}

func TestAnalyzeReport(t *testing.T) {
	g := triangleWithTail()
	g.AddVertex("island")
	r := g.Analyze()
	if r.Vertices != 5 || r.Edges != 4 {
		t.Errorf("report = %+v", r)
	}
	if r.Components != 2 || r.LargestComponent != 4 {
		t.Errorf("components = %d/%d, want 2/4", r.Components, r.LargestComponent)
	}
	if r.ClusteringCoefficient <= 0 || r.AveragePathLength <= 0 {
		t.Errorf("structure stats missing: %+v", r)
	}
}

func TestSmallWorldSignatureOnGroupGraph(t *testing.T) {
	// Groups-as-cliques plus a few random bridges: high clustering,
	// short paths — the structure the learned θ-graph exhibits.
	g := New()
	const groups, size = 6, 5
	name := func(gr, m int) trace.UserID {
		return trace.UserID(fmt.Sprintf("g%dm%d", gr, m))
	}
	for gr := 0; gr < groups; gr++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.AddEdge(name(gr, i), name(gr, j), 1)
			}
		}
	}
	for gr := 0; gr < groups; gr++ {
		g.AddEdge(name(gr, 0), name((gr+1)%groups, 1), 1) // bridges
	}
	r := g.Analyze()
	if r.ClusteringCoefficient < 0.5 {
		t.Errorf("clustering = %v, want high (cliquish)", r.ClusteringCoefficient)
	}
	if r.Components != 1 {
		t.Errorf("components = %d, want 1 (bridged)", r.Components)
	}
	if r.AveragePathLength <= 1 || r.AveragePathLength > 6 {
		t.Errorf("APL = %v, want short", r.AveragePathLength)
	}
}

func TestWriteDOT(t *testing.T) {
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "social" {`, `"a" -- "b"`, `label="1.00"`, "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Each edge appears exactly once.
	if strings.Count(out, " -- ") != g.NumEdges() {
		t.Errorf("edge lines = %d, want %d", strings.Count(out, " -- "), g.NumEdges())
	}
}
