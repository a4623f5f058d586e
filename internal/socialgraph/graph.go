// Package socialgraph provides the graph substrate of the S³ scheme: a
// weighted undirected graph over users whose edges carry social-relation
// indexes, and Cover, the iterated clique-cover extraction Algorithm 1
// uses to peel socially-tight groups off a graph: an exact maximum-clique
// search over vertices 0..n-1, which a batch placement fills from its
// own indices and MaxClique and ExtractCliqueCover from a Graph.
package socialgraph

import (
	"fmt"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Graph is a weighted undirected graph over users. The zero value is an
// empty graph ready to use.
type Graph struct {
	adj map[trace.UserID]map[trace.UserID]float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[trace.UserID]map[trace.UserID]float64)}
}

// AddVertex ensures u exists in the graph (isolated if no edges follow).
func (g *Graph) AddVertex(u trace.UserID) {
	if g.adj == nil {
		g.adj = make(map[trace.UserID]map[trace.UserID]float64)
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[trace.UserID]float64)
	}
}

// AddEdge inserts (or overwrites) the undirected edge u—v with the given
// weight. Self-loops are ignored.
func (g *Graph) AddEdge(u, v trace.UserID, weight float64) {
	if u == v {
		return
	}
	g.AddVertex(u)
	g.AddVertex(v)
	g.adj[u][v] = weight
	g.adj[v][u] = weight
}

// HasEdge reports whether u—v exists.
func (g *Graph) HasEdge(u, v trace.UserID) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Weight returns the weight of u—v (0 if absent) and whether it exists.
func (g *Graph) Weight(u, v trace.UserID) (float64, bool) {
	w, ok := g.adj[u][v]
	return w, ok
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, nbrs := range g.adj {
		n += len(nbrs)
	}
	return n / 2
}

// Vertices returns all vertices in sorted order (stable for determinism).
func (g *Graph) Vertices() []trace.UserID {
	out := make([]trace.UserID, 0, len(g.adj))
	for u := range g.adj {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Neighbors returns u's neighbours in sorted order.
func (g *Graph) Neighbors(u trace.UserID) []trace.UserID {
	out := make([]trace.UserID, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Degree returns u's degree.
func (g *Graph) Degree(u trace.UserID) int { return len(g.adj[u]) }

// ConnectedComponents returns the vertex sets of the graph's connected
// components, each sorted, ordered by their smallest vertex.
func (g *Graph) ConnectedComponents() [][]trace.UserID {
	visited := make(map[trace.UserID]bool, len(g.adj))
	var comps [][]trace.UserID
	for _, start := range g.Vertices() {
		if visited[start] {
			continue
		}
		var comp []trace.UserID
		stack := []trace.UserID{start}
		visited[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// String renders a compact summary for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("socialgraph.Graph{vertices: %d, edges: %d}",
		g.NumVertices(), g.NumEdges())
}

// FromThreshold builds the Algorithm 1 input graph: vertices are the given
// users and an edge connects every pair whose social index (per the index
// function) exceeds the threshold (the paper uses 0.3).
func FromThreshold(users []trace.UserID, threshold float64,
	index func(u, v trace.UserID) float64) *Graph {
	g := New()
	for _, u := range users {
		g.AddVertex(u)
	}
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			w := index(users[i], users[j])
			if w > threshold {
				g.AddEdge(users[i], users[j], w)
			}
		}
	}
	return g
}
