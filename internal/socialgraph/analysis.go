package socialgraph

import (
	"bufio"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Structural analysis of the learned social graph. The paper's related
// work (Hsu & Helmy) found small-world structure in WLAN encounter
// graphs; these helpers let the same questions be asked of the θ-graph
// this library learns.

// LocalClusteringCoefficient returns the fraction of u's neighbour pairs
// that are themselves connected (0 for degree < 2).
func (g *Graph) LocalClusteringCoefficient(u trace.UserID) float64 {
	nbrs := g.Neighbors(u)
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	links := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return float64(links) / float64(k*(k-1)/2)
}

// ClusteringCoefficient returns the mean local clustering coefficient
// over all vertices (0 for an empty graph). High values alongside short
// path lengths are the small-world signature.
func (g *Graph) ClusteringCoefficient() float64 {
	vs := g.Vertices()
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, u := range vs {
		sum += g.LocalClusteringCoefficient(u)
	}
	return sum / float64(len(vs))
}

// DegreeHistogram returns degree -> vertex count.
func (g *Graph) DegreeHistogram() map[int]int {
	out := make(map[int]int)
	for _, u := range g.Vertices() {
		out[g.Degree(u)]++
	}
	return out
}

// MeanDegree returns the average vertex degree.
func (g *Graph) MeanDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// AveragePathLength returns the mean shortest-path length over all
// connected vertex pairs (hop count, unweighted), and the number of pairs
// measured. Disconnected pairs are excluded. O(V·E) via BFS per vertex.
func (g *Graph) AveragePathLength() (mean float64, pairs int) {
	vs := g.Vertices()
	idx := make(map[trace.UserID]int, len(vs))
	for i, u := range vs {
		idx[u] = i
	}
	var totalDist, totalPairs int
	dist := make([]int, len(vs))
	queue := make([]int, 0, len(vs))
	for s := range vs {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(vs[u]) {
				wi := idx[w]
				if dist[wi] == -1 {
					dist[wi] = dist[u] + 1
					queue = append(queue, wi)
				}
			}
		}
		for t := s + 1; t < len(vs); t++ {
			if dist[t] > 0 {
				totalDist += dist[t]
				totalPairs++
			}
		}
	}
	if totalPairs == 0 {
		return 0, 0
	}
	return float64(totalDist) / float64(totalPairs), totalPairs
}

// Report summarizes the graph's structure.
type Report struct {
	Vertices              int
	Edges                 int
	MeanDegree            float64
	ClusteringCoefficient float64
	AveragePathLength     float64
	ConnectedPairs        int
	Components            int
	LargestComponent      int
}

// Analyze computes the full structural report.
func (g *Graph) Analyze() Report {
	comps := g.ConnectedComponents()
	largest := 0
	for _, c := range comps {
		if len(c) > largest {
			largest = len(c)
		}
	}
	apl, pairs := g.AveragePathLength()
	return Report{
		Vertices:              g.NumVertices(),
		Edges:                 g.NumEdges(),
		MeanDegree:            g.MeanDegree(),
		ClusteringCoefficient: g.ClusteringCoefficient(),
		AveragePathLength:     apl,
		ConnectedPairs:        pairs,
		Components:            len(comps),
		LargestComponent:      largest,
	}
}

// WriteDOT renders the graph in Graphviz DOT format with edge weights as
// labels, for visual inspection of the learned social structure.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "social"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %q {\n", name)
	for _, u := range g.Vertices() {
		fmt.Fprintf(bw, "  %q;\n", string(u))
	}
	for _, u := range g.Vertices() {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue // each undirected edge once
			}
			weight, _ := g.Weight(u, v)
			fmt.Fprintf(bw, "  %q -- %q [label=\"%.2f\"];\n",
				string(u), string(v), weight)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
