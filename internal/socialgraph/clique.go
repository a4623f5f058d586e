package socialgraph

import (
	"cmp"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Cover is the maximum-clique machinery of Algorithm 1 on vertices
// 0..n-1, which stand for users in ascending id order: an exact
// branch-and-bound maximum-clique search in the style of Östergård
// (2002), vertices pre-ordered by a greedy colouring whose colour count
// bounds the attainable clique size, iterated — remove a maximum clique
// (ties broken by the largest edge-weight sum, as the paper prescribes),
// search what is left — until the graph is empty. Reset, AddEdge per
// edge, Extract, Clique. The zero value is ready and a Cover keeps its
// buffers across Resets: reused, it allocates nothing once they have
// grown to the largest graph seen.
type Cover struct {
	n    int
	adj  []bool    // n×n, symmetric
	w    []float64 // n×n, symmetric; read only where adj is set
	deg  []int     // per vertex: neighbours not yet removed
	gone []bool    // per vertex: removed with an earlier clique

	// Clique k of the cover is members[ends[k]:ends[k+1]], ascending.
	members, ends []int

	// One search. bound, cur, best and stack hold positions in order.
	order     []int  // the vertices searched, by (colour, degree desc, index)
	color     []int  // per vertex
	taken     []bool // per colour, while a vertex picks its own
	bound     []int  // per position i: the largest clique within order[i:]
	cur, best []int
	bestW     float64
	stack     []int // the open search levels' candidate lists, end to end
}

// sized returns s at length n and zeroed, on its own array when it fits.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[:n])
	return s[:n]
}

// Reset makes c the edgeless graph over vertices 0..n-1.
func (c *Cover) Reset(n int) {
	c.n = n
	c.adj, c.w = sized(c.adj, n*n), sized(c.w, n*n)
	c.deg, c.gone, c.color, c.taken = sized(c.deg, n), sized(c.gone, n), sized(c.color, n), sized(c.taken, n)
	c.bound, c.cur = sized(c.bound, n), sized(c.cur, n)
	c.members, c.ends = c.members[:0], append(c.ends[:0], 0)
}

// AddEdge inserts (or overwrites) the undirected edge i—j, i ≠ j.
func (c *Cover) AddEdge(i, j int, weight float64) {
	if !c.adj[i*c.n+j] {
		c.adj[i*c.n+j], c.adj[j*c.n+i] = true, true
		c.deg[i]++
		c.deg[j]++
	}
	c.w[i*c.n+j], c.w[j*c.n+i] = weight, weight
}

// Extract removes maximum cliques until no vertex is left — a partition
// of the vertex set into cliques, largest first — and returns their count.
func (c *Cover) Extract() int {
	for len(c.members) < c.n {
		c.next()
	}
	return len(c.ends) - 1
}

// Clique returns the k-th clique extracted, the caller's to reorder
// until the next Reset.
func (c *Cover) Clique(k int) []int { return c.members[c.ends[k]:c.ends[k+1]] }

// next removes a maximum clique from what is left of the graph and
// appends it to the cover. Once no edge is left every maximum clique is
// a single vertex and the search's tie-break hands those over largest
// index first; the remainder — usually the whole of a batch graph — is
// emitted in that order, all at once, without a search per vertex.
func (c *Cover) next() {
	best := c.maxClique()
	if len(best) == 0 {
		for v := c.n - 1; v >= 0; v-- {
			if !c.gone[v] {
				c.members, c.gone[v] = append(c.members, v), true
				c.ends = append(c.ends, len(c.members))
			}
		}
		return
	}
	slices.Sort(best)
	for _, u := range best {
		c.gone[u] = true
		for v, adjacent := range c.adj[u*c.n : (u+1)*c.n] {
			if adjacent {
				c.deg[v]--
			}
		}
	}
	c.members = append(c.members, best...)
	c.ends = append(c.ends, len(c.members))
}

// maxClique returns a maximum clique of what is left of the graph, none
// when no edge is left; among maximum cliques the one with the largest
// internal edge-weight sum (the paper's tie-break: heavier cliques are
// more likely to co-leave and need dispersing first).
//
// Vertices are ordered by a greedy colouring: sort by descending degree,
// assign each the smallest feasible colour, then order by colour.
// Searching in this order lets the colour number prune branches. A
// vertex without a neighbour is left out: it colours no one, bounds no
// one and is a best clique only until the first edge is considered.
func (c *Cover) maxClique() []int {
	n, order := c.n, c.order[:0]
	for v := 0; v < n; v++ {
		if !c.gone[v] && c.deg[v] > 0 {
			order = append(order, v)
		}
	}
	slices.SortFunc(order, func(u, v int) int {
		return cmp.Or(cmp.Compare(c.deg[v], c.deg[u]), cmp.Compare(u, v))
	})
	for k, u := range order {
		taken := c.taken[:k+1]
		clear(taken)
		for _, v := range order[:k] {
			if c.adj[u*n+v] {
				taken[c.color[v]] = true
			}
		}
		c.color[u] = slices.Index(taken, false)
	}
	slices.SortStableFunc(order, func(u, v int) int { return cmp.Compare(c.color[u], c.color[v]) })
	c.order = order

	// The Östergård-style search: process vertices from the end of the
	// order toward the front; bound[i] is the max clique size within the
	// suffix order[i:], used as the pruning bound.
	c.best, c.bestW = c.best[:0], 0
	for i := len(order) - 1; i >= 0; i-- {
		// Candidates: neighbours of i within the suffix.
		row, cand := c.adj[order[i]*n:], c.stack[:0]
		for j := i + 1; j < len(order); j++ {
			if row[order[j]] {
				cand = append(cand, j)
			}
		}
		c.stack, c.cur[0] = cand, i
		c.expand(1, cand)
		c.bound[i] = len(c.best)
	}
	for k, i := range c.best {
		c.best[k] = order[i]
	}
	return c.best
}

// expand grows the clique cur[:depth] by the candidates, each adjacent
// to all of it and after it in the order.
func (c *Cover) expand(depth int, candidates []int) {
	for len(candidates) > 0 {
		// Bound 1: even taking every candidate cannot beat the best.
		if depth+len(candidates) < len(c.best) {
			return
		}
		v := candidates[0]
		// Bound 2 (Östergård): the best clique within the suffix starting
		// at v is known; adding it to the current one can't beat best.
		// Note both bounds use strict <: equal-size cliques must still be
		// explored because the tie-break prefers the largest edge-weight
		// sum among maximum cliques.
		if depth+c.bound[v] < len(c.best) {
			return
		}
		candidates = candidates[1:]
		c.cur[depth] = v
		row, mark := c.adj[c.order[v]*c.n:], len(c.stack)
		for _, x := range candidates {
			if row[c.order[x]] {
				c.stack = append(c.stack, x)
			}
		}
		c.expand(depth+1, c.stack[mark:])
		c.stack = c.stack[:mark]
	}
	c.consider(c.cur[:depth])
}

// consider makes clique the best one if it is larger, or as large and
// strictly heavier, its weights summed pair by pair in search order.
func (c *Cover) consider(clique []int) {
	if len(clique) < len(c.best) {
		return
	}
	var w float64
	for i, p := range clique {
		row := c.w[c.order[p]*c.n:]
		for _, q := range clique[i+1:] {
			w += row[c.order[q]]
		}
	}
	if len(clique) > len(c.best) || w > c.bestW {
		c.best, c.bestW = append(c.best[:0], clique...), w
	}
}

// load numbers g's vertices in id order and returns the Cover over them.
func load(g *Graph) (*Cover, []trace.UserID) {
	names, c := g.Vertices(), new(Cover)
	c.Reset(len(names))
	for i, u := range names {
		for v, w := range g.adj[u] {
			if u < v {
				j, _ := slices.BinarySearch(names, v)
				c.AddEdge(i, j, w)
			}
		}
	}
	return c, names
}

// MaxClique returns a maximum clique of g — the first a Cover over g
// extracts: among maximum cliques the one with the largest internal
// edge-weight sum. The result is sorted; an empty graph returns nil.
func MaxClique(g *Graph) []trace.UserID {
	c, names := load(g)
	if len(names) == 0 {
		return nil
	}
	c.next()
	return named(c.Clique(0), names)
}

func named(clique []int, names []trace.UserID) []trace.UserID {
	out := make([]trace.UserID, len(clique))
	for i, v := range clique {
		out[i] = names[v]
	}
	return out
}

// ExtractCliqueCover returns the cliques a Cover over g extracts, in
// extraction order, each sorted; g is left as it is.
func ExtractCliqueCover(g *Graph) [][]trace.UserID {
	c, names := load(g)
	var cover [][]trace.UserID
	for k, n := 0, c.Extract(); k < n; k++ {
		cover = append(cover, named(c.Clique(k), names))
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
