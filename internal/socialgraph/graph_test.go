package socialgraph

import (
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestGraphBasics(t *testing.T) {
	g := New()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("new graph should be empty")
	}
	g.AddEdge("a", "b", 0.5)
	g.AddEdge("b", "c", 0.7)
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Errorf("vertices = %d, edges = %d; want 3, 2",
			g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge("a", "b") || !g.HasEdge("b", "a") {
		t.Error("edges should be undirected")
	}
	if g.HasEdge("a", "c") {
		t.Error("a-c should not exist")
	}
	w, ok := g.Weight("b", "c")
	if !ok || w != 0.7 {
		t.Errorf("Weight(b,c) = %v, %v", w, ok)
	}
	if _, ok := g.Weight("a", "c"); ok {
		t.Error("missing edge weight should report false")
	}
	if g.Degree("b") != 2 || g.Degree("a") != 1 {
		t.Error("degrees wrong")
	}
}

func TestGraphSelfLoopIgnored(t *testing.T) {
	g := New()
	g.AddEdge("a", "a", 1)
	if g.NumEdges() != 0 {
		t.Error("self-loop should be ignored")
	}
}

func TestGraphZeroValueUsable(t *testing.T) {
	var g Graph
	g.AddVertex("x")
	if g.NumVertices() != 1 {
		t.Error("zero-value graph should accept vertices")
	}
}

func TestGraphEdgeOverwrite(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 0.2)
	g.AddEdge("a", "b", 0.9)
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
	if w, _ := g.Weight("a", "b"); w != 0.9 {
		t.Errorf("weight = %v, want 0.9", w)
	}
}

func TestRemoveVertex(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("a", "c", 1)
	g.RemoveVertex("a")
	if g.NumVertices() != 2 || g.NumEdges() != 0 {
		t.Errorf("after removal: vertices = %d, edges = %d",
			g.NumVertices(), g.NumEdges())
	}
	if g.HasEdge("b", "a") {
		t.Error("dangling edge left behind")
	}
	// Removing an absent vertex is a no-op.
	g.RemoveVertex("ghost")
}

func TestVerticesAndNeighborsSorted(t *testing.T) {
	g := New()
	g.AddEdge("c", "a", 1)
	g.AddEdge("c", "b", 1)
	vs := g.Vertices()
	if len(vs) != 3 || vs[0] != "a" || vs[1] != "b" || vs[2] != "c" {
		t.Errorf("Vertices = %v", vs)
	}
	ns := g.Neighbors("c")
	if len(ns) != 2 || ns[0] != "a" || ns[1] != "b" {
		t.Errorf("Neighbors = %v", ns)
	}
}

func TestEdgeWeightSumAndIsClique(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 0.4)
	g.AddEdge("b", "c", 0.5)
	g.AddEdge("a", "c", 0.6)
	g.AddEdge("c", "d", 0.9)
	set := []trace.UserID{"a", "b", "c"}
	if !g.IsClique(set) {
		t.Error("a,b,c should be a clique")
	}
	if g.IsClique([]trace.UserID{"a", "b", "d"}) {
		t.Error("a,b,d should not be a clique")
	}
	// The triangle is the maximum clique; the search credits it with the
	// sum of its edge weights.
	c, _ := load(g)
	c.next()
	if c.bestW != 1.5 {
		t.Errorf("edge weight sum of the maximum clique = %v, want 1.5", c.bestW)
	}
}

func TestClone(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 1)
	c := g.Clone()
	c.RemoveVertex("a")
	if !g.HasEdge("a", "b") {
		t.Error("mutating clone affected original")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("x", "y", 1)
	g.AddVertex("lonely")
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != "a" {
		t.Errorf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != "lonely" {
		t.Errorf("second component = %v", comps[1])
	}
	if len(comps[2]) != 2 || comps[2][0] != "x" {
		t.Errorf("third component = %v", comps[2])
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 0.5)
	g.AddEdge("b", "c", 0.6)
	g.AddEdge("c", "d", 0.7)
	g.AddVertex("e")
	sub := g.InducedSubgraph([]trace.UserID{"a", "b", "c", "e"})
	if sub.NumVertices() != 4 {
		t.Errorf("vertices = %d, want 4", sub.NumVertices())
	}
	if sub.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (a-b, b-c)", sub.NumEdges())
	}
	if w, ok := sub.Weight("b", "c"); !ok || w != 0.6 {
		t.Errorf("weight(b,c) = %v, %v", w, ok)
	}
	if sub.HasEdge("c", "d") {
		t.Error("edge to excluded vertex must not survive")
	}
	// The subgraph must not share storage with the original.
	sub.AddEdge("a", "e", 0.9)
	if g.HasEdge("a", "e") {
		t.Error("subgraph mutation leaked into the source graph")
	}
}

func TestSortCover(t *testing.T) {
	cover := [][]trace.UserID{
		{"x"},
		{"b", "c"},
		{"a", "d"},
		{"p", "q", "r"},
	}
	SortCover(cover)
	want := [][]trace.UserID{
		{"p", "q", "r"},
		{"a", "d"},
		{"b", "c"},
		{"x"},
	}
	for i := range want {
		if len(cover[i]) != len(want[i]) {
			t.Fatalf("cover[%d] = %v, want %v", i, cover[i], want[i])
		}
		for j := range want[i] {
			if cover[i][j] != want[i][j] {
				t.Fatalf("cover[%d] = %v, want %v", i, cover[i], want[i])
			}
		}
	}
}

func TestFromThreshold(t *testing.T) {
	users := []trace.UserID{"a", "b", "c"}
	idx := func(u, v trace.UserID) float64 {
		if (u == "a" && v == "b") || (u == "b" && v == "a") {
			return 0.8
		}
		return 0.1
	}
	g := FromThreshold(users, 0.3, idx)
	if g.NumVertices() != 3 {
		t.Errorf("vertices = %d, want 3 (isolated kept)", g.NumVertices())
	}
	if g.NumEdges() != 1 || !g.HasEdge("a", "b") {
		t.Errorf("edges wrong: %v", g)
	}
	// Exactly-threshold weights are excluded (strict >).
	gEq := FromThreshold(users, 0.1, func(u, v trace.UserID) float64 { return 0.1 })
	if gEq.NumEdges() != 0 {
		t.Error("threshold should be strict")
	}
}

func TestGraphString(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 1)
	if s := g.String(); s == "" {
		t.Error("String should be non-empty")
	}
}

// InducedSubgraph returns a fresh graph over the given vertices with
// every edge of g whose endpoints both lie in the set. The result shares
// no storage with g.
func (g *Graph) InducedSubgraph(verts []trace.UserID) *Graph {
	in := make(map[trace.UserID]bool, len(verts))
	for _, u := range verts {
		in[u] = true
	}
	sub := New()
	for _, u := range verts {
		sub.AddVertex(u)
		for v, w := range g.adj[u] {
			if in[v] {
				sub.adj[u][v] = w
			}
		}
	}
	return sub
}
