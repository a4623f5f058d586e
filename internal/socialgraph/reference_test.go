package socialgraph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// The string-keyed clique cover Cover replaced, kept as the reference the
// differential test holds it to: a solver per extraction over a clone of
// the graph, name→index and colour maps, vertices removed from the clone.

// IsClique reports whether every pair in s is connected.
func (g *Graph) IsClique(s []trace.UserID) bool {
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if !g.HasEdge(s[i], s[j]) {
				return false
			}
		}
	}
	return true
}

// RemoveVertex deletes u and all its incident edges.
func (g *Graph) RemoveVertex(u trace.UserID) {
	for v := range g.adj[u] {
		delete(g.adj[v], u)
	}
	delete(g.adj, u)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for u, nbrs := range g.adj {
		c.AddVertex(u)
		for v, w := range nbrs {
			c.adj[u][v] = w
		}
	}
	return c
}

func refMaxClique(g *Graph) []trace.UserID {
	vertices := g.Vertices()
	if len(vertices) == 0 {
		return nil
	}
	s := newRefSolver(g, vertices)
	best := s.solve()
	out := make([]trace.UserID, len(best))
	for i, idx := range best {
		out[i] = s.names[idx]
	}
	slices.Sort(out)
	return out
}

type refSolver struct {
	names []trace.UserID
	adj   [][]bool
	n     int

	best       []int
	bestWeight float64
	g          *Graph
}

func newRefSolver(g *Graph, vertices []trace.UserID) *refSolver {
	order := refColoringOrder(g, vertices)
	n := len(order)
	idx := make(map[trace.UserID]int, n)
	names := make([]trace.UserID, n)
	for i, u := range order {
		idx[u] = i
		names[i] = u
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i, u := range order {
		for _, v := range g.Neighbors(u) {
			adj[i][idx[v]] = true
		}
	}
	return &refSolver{names: names, adj: adj, n: n, g: g}
}

func refColoringOrder(g *Graph, vertices []trace.UserID) []trace.UserID {
	byDegree := append([]trace.UserID(nil), vertices...)
	slices.SortFunc(byDegree, func(u, v trace.UserID) int {
		return cmp.Or(cmp.Compare(g.Degree(v), g.Degree(u)), cmp.Compare(u, v))
	})
	color := make(map[trace.UserID]int, len(vertices))
	for _, u := range byDegree {
		used := make(map[int]bool)
		for _, v := range g.Neighbors(u) {
			if c, ok := color[v]; ok {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[u] = c
	}
	out := append([]trace.UserID(nil), byDegree...)
	slices.SortStableFunc(out, func(u, v trace.UserID) int { return cmp.Compare(color[u], color[v]) })
	return out
}

func (s *refSolver) solve() []int {
	c := make([]int, s.n+1)
	for i := s.n - 1; i >= 0; i-- {
		var cand []int
		for j := i + 1; j < s.n; j++ {
			if s.adj[i][j] {
				cand = append(cand, j)
			}
		}
		s.expand([]int{i}, cand, c)
		c[i] = len(s.best)
		if c[i] < c[i+1] {
			c[i] = c[i+1]
		}
	}
	return s.best
}

func (s *refSolver) expand(current, candidates []int, c []int) {
	if len(candidates) == 0 {
		s.consider(current)
		return
	}
	for len(candidates) > 0 {
		if len(current)+len(candidates) < len(s.best) {
			return
		}
		v := candidates[0]
		if len(current)+c[v] < len(s.best) {
			return
		}
		candidates = candidates[1:]
		next := current
		next = append(next[:len(next):len(next)], v)
		var rest []int
		for _, w := range candidates {
			if s.adj[v][w] {
				rest = append(rest, w)
			}
		}
		if len(rest) == 0 {
			s.consider(next)
		} else {
			s.expand(next, rest, c)
		}
	}
	s.consider(current)
}

func (s *refSolver) consider(clique []int) {
	if len(clique) < len(s.best) {
		return
	}
	w := s.weightOf(clique)
	if len(clique) > len(s.best) || w > s.bestWeight {
		s.best = append([]int(nil), clique...)
		s.bestWeight = w
	}
}

func (s *refSolver) weightOf(clique []int) float64 {
	var total float64
	for i := 0; i < len(clique); i++ {
		for j := i + 1; j < len(clique); j++ {
			if w, ok := s.g.Weight(s.names[clique[i]], s.names[clique[j]]); ok {
				total += w
			}
		}
	}
	return total
}

func refExtractCliqueCover(g *Graph) [][]trace.UserID {
	var cover [][]trace.UserID
	work := g
	for work.NumEdges() > 0 {
		if work == g {
			work = g.Clone()
		}
		clique := refMaxClique(work)
		cover = append(cover, clique)
		for _, u := range clique {
			work.RemoveVertex(u)
		}
	}
	rest := work.Vertices()
	for i := len(rest) - 1; i >= 0; i-- {
		cover = append(cover, rest[i:i+1:i+1])
	}
	return cover
}

// TestCoverMatchesStringKeyedReference: on 3 000 seeded random graphs of
// up to 14 vertices — sparse and dense, isolated vertices, every weight
// equal, weights drawn from three values, weights no float sums exactly —
// the indexed cover named back equals the string-keyed reference's,
// clique by clique and in order, through ExtractCliqueCover and through a
// Cover that is Reset and reused from graph to graph; MaxClique agrees
// with the reference's on each graph too.
func TestCoverMatchesStringKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var reused Cover
	withEdges, ties := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(15)
		names := make([]trace.UserID, n)
		g := New()
		for i := range names {
			names[i] = trace.UserID(fmt.Sprintf("u%02d", i))
			g.AddVertex(names[i])
		}
		density := []float64{0.05, 0.15, 0.4, 0.7, 0.95}[trial%5]
		weight := []func() float64{
			func() float64 { return 0.5 },
			func() float64 { return []float64{0.31, 0.4, 0.9}[rng.Intn(3)] },
			rng.Float64,
		}[trial/5%3]
		reused.Reset(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					w := weight()
					g.AddEdge(names[i], names[j], w)
					reused.AddEdge(i, j, w)
				}
			}
		}
		if g.NumEdges() > 0 {
			withEdges++
		}
		if trial/5%3 < 2 && g.NumEdges() > 2 {
			ties++
		}

		want := refExtractCliqueCover(g)
		if got := ExtractCliqueCover(g); !slices.EqualFunc(got, want, slices.Equal[[]trace.UserID]) {
			t.Fatalf("trial %d (%d vertices, %d edges): ExtractCliqueCover = %v, the reference extracts %v", trial, n, g.NumEdges(), got, want)
		}
		if got := reused.Extract(); got != len(want) {
			t.Fatalf("trial %d: the reused Cover extracts %d cliques, the reference %d", trial, got, len(want))
		}
		for k, clique := range want {
			if got := named(reused.Clique(k), names); !slices.Equal(got, clique) {
				t.Fatalf("trial %d: the reused Cover's clique %d is %v, the reference's %v", trial, k, got, clique)
			}
		}
		if got, want := MaxClique(g), refMaxClique(g); !slices.Equal(got, want) {
			t.Fatalf("trial %d: MaxClique = %v, the reference's %v", trial, got, want)
		}
	}
	if withEdges < 2000 || ties < 1000 {
		t.Errorf("%d graphs with an edge, %d with tied weights: too few to call the covers equal", withEdges, ties)
	}
}

var benchCliques int

// BenchmarkCliqueCover extracts the cover of a 12-vertex batch graph —
// two planted groups of four, a few stray edges, two strangers — on a
// reused Cover (what a batch placement pays) and through the
// string-keyed wrapper (what a caller holding a Graph pays).
func BenchmarkCliqueCover(b *testing.B) {
	type edge struct {
		i, j int
		w    float64
	}
	var edges []edge
	for _, group := range [][]int{{0, 3, 5, 9}, {1, 4, 6, 10}} {
		for a, i := range group {
			for _, j := range group[a+1:] {
				edges = append(edges, edge{i, j, 0.4 + 0.03*float64(i+j)})
			}
		}
	}
	edges = append(edges, edge{2, 3, 0.35}, edge{6, 7, 0.5}, edge{9, 10, 0.31})
	g := New()
	for i := 0; i < 12; i++ {
		g.AddVertex(trace.UserID(fmt.Sprintf("u%02d", i)))
	}
	names := g.Vertices()
	for _, e := range edges {
		g.AddEdge(names[e.i], names[e.j], e.w)
	}
	b.Run("indexed", func(b *testing.B) {
		var c Cover
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Reset(12)
			for _, e := range edges {
				c.AddEdge(e.i, e.j, e.w)
			}
			benchCliques = c.Extract()
		}
	})
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCliques = len(ExtractCliqueCover(g))
		}
	})
}
