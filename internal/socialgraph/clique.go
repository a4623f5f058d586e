package socialgraph

import (
	"cmp"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// This file implements the maximum-clique machinery of Algorithm 1:
//
//   - an exact branch-and-bound maximum-clique solver in the style of
//     Östergård (2002), with vertices pre-ordered by a greedy colouring
//     whose colour count bounds the attainable clique size, and
//   - the iterated extraction loop: repeatedly remove a maximum clique
//     (ties broken by the largest edge-weight sum, as the paper
//     prescribes) until the graph is empty.

// MaxClique returns a maximum clique of g. Among maximum cliques the one
// with the largest internal edge-weight sum is preferred (the paper's
// tie-break: heavier cliques are more likely to co-leave and need
// dispersing first). The result is sorted; an empty graph returns nil.
func MaxClique(g *Graph) []trace.UserID {
	vertices := g.Vertices()
	if len(vertices) == 0 {
		return nil
	}
	s := newCliqueSolver(g, vertices)
	best := s.solve()
	out := make([]trace.UserID, len(best))
	for i, idx := range best {
		out[i] = s.names[idx]
	}
	slices.Sort(out)
	return out
}

type cliqueSolver struct {
	names []trace.UserID
	adj   [][]bool
	n     int

	best       []int
	bestWeight float64
	g          *Graph
}

func newCliqueSolver(g *Graph, vertices []trace.UserID) *cliqueSolver {
	// Order vertices by a greedy colouring: sort by descending degree,
	// assign each the smallest feasible colour, then order by colour.
	// Searching in this order lets the colour number prune branches.
	order := greedyColoringOrder(g, vertices)
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
	return &cliqueSolver{names: names, adj: adj, n: n, g: g}
}

// greedyColoringOrder colours vertices greedily (descending degree) and
// returns them sorted by (colour, degree desc, name) so low-colour
// vertices come first.
func greedyColoringOrder(g *Graph, vertices []trace.UserID) []trace.UserID {
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

// solve runs the Östergård-style search: process vertices from the end of
// the order toward the front; c[i] is the max clique size within the
// suffix {i..n-1}, used as the pruning bound.
func (s *cliqueSolver) solve() []int {
	c := make([]int, s.n+1)
	for i := s.n - 1; i >= 0; i-- {
		// Candidates: neighbours of i within the suffix.
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

func (s *cliqueSolver) expand(current, candidates []int, c []int) {
	if len(candidates) == 0 {
		s.consider(current)
		return
	}
	for len(candidates) > 0 {
		// Bound 1: even taking every candidate cannot beat the best.
		if len(current)+len(candidates) < len(s.best) {
			return
		}
		v := candidates[0]
		// Bound 2 (Östergård): the best clique within the suffix starting
		// at v is known; adding it to current can't beat best.
		// Note both bounds use strict <: equal-size cliques must still be
		// explored because the tie-break prefers the largest edge-weight
		// sum among maximum cliques.
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

func (s *cliqueSolver) consider(clique []int) {
	if len(clique) < len(s.best) {
		return
	}
	w := s.weightOf(clique)
	if len(clique) > len(s.best) || w > s.bestWeight {
		s.best = append([]int(nil), clique...)
		s.bestWeight = w
	}
}

func (s *cliqueSolver) weightOf(clique []int) float64 {
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

// ExtractCliqueCover repeatedly removes a maximum clique from (a copy of)
// g until no vertices remain, returning the cliques in extraction order.
// This is the partitioning loop of Algorithm 1: because removing a clique
// never destroys clique-ness of the remainder, the result is a partition
// of the vertex set into cliques, extracted largest-first.
//
// Once no edge is left every maximum clique is a single vertex, and
// MaxClique's tie-break hands those over largest id first; the remainder
// — usually the whole of a batch graph — is emitted in that order
// without a solver per vertex.
func ExtractCliqueCover(g *Graph) [][]trace.UserID {
	var cover [][]trace.UserID
	work := g
	for work.NumEdges() > 0 {
		if work == g {
			work = g.Clone()
		}
		clique := MaxClique(work)
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

// SortCover orders a clique cover canonically in place: cliques with
// more members first, ties broken lexicographically by (member-sorted)
// contents. Extraction order carries no semantics once a cover is a
// partition, so splicing per-component covers (the incremental engine)
// and whole-graph extraction agree exactly after canonicalization.
func SortCover(cover [][]trace.UserID) {
	slices.SortFunc(cover, func(a, b []trace.UserID) int {
		return cmp.Or(cmp.Compare(len(b), len(a)), slices.Compare(a, b))
	})
}
