package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// SocialReport summarizes the structure of the learned θ-graph — the
// small-world questions the paper's related work (Hsu & Helmy) asks of
// WLAN encounter graphs, answered for the relationship graph S³ actually
// uses.
type SocialReport struct {
	// Threshold is the θ cut used to build the graph.
	Threshold float64
	// Graph is the structural report (degree, clustering, path length).
	Graph socialgraph.Report
	// DegreeHistogram maps degree -> user count.
	DegreeHistogram map[int]int
	// TopPairs lists the strongest relationships.
	TopPairs []PairStrength

	graph *socialgraph.Graph
}

// PairStrength pairs users with their θ value.
type PairStrength struct {
	A, B  trace.UserID
	Theta float64
}

// BuildSocialReport analyzes the model's θ > threshold graph as
// Model.CloseFriendRows lays it out: every user the model knows, and
// every edge, prior-only ones included.
func BuildSocialReport(m *society.Model, threshold float64) (*SocialReport, error) {
	if m == nil {
		return nil, errors.New("analysis: nil model")
	}
	if threshold <= 0 {
		threshold = 0.3
	}
	users, start, friends, theta := m.CloseFriendRows(threshold)
	g := socialgraph.New()
	var top []PairStrength
	for i, u := range users {
		g.AddVertex(u)
		for k := start[i]; k < start[i+1]; k++ {
			if v := friends[k]; u < v {
				g.AddEdge(u, v, theta[k])
				top = append(top, PairStrength{A: u, B: v, Theta: theta[k]})
			}
		}
	}
	slices.SortFunc(top, func(a, b PairStrength) int {
		return cmp.Or(cmp.Compare(b.Theta, a.Theta), cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	top = top[:min(10, len(top))]
	return &SocialReport{
		Threshold:       threshold,
		Graph:           g.Analyze(),
		DegreeHistogram: g.DegreeHistogram(),
		TopPairs:        top,
		graph:           g,
	}, nil
}

// WriteDOT writes the graph the report analyzed as Graphviz DOT.
func (r *SocialReport) WriteDOT(w io.Writer) error { return r.graph.WriteDOT(w, "s3") }

// Render formats the report as text.
func (r *SocialReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Social graph (θ > %.2f)\n", r.Threshold)
	fmt.Fprintf(&sb, "  users: %d   relationships: %d   components: %d (largest %d)\n",
		r.Graph.Vertices, r.Graph.Edges, r.Graph.Components, r.Graph.LargestComponent)
	fmt.Fprintf(&sb, "  mean degree: %.2f   clustering coefficient: %.3f   avg path length: %.2f\n",
		r.Graph.MeanDegree, r.Graph.ClusteringCoefficient, r.Graph.AveragePathLength)
	sb.WriteString("  strongest pairs:\n")
	for _, p := range r.TopPairs {
		fmt.Fprintf(&sb, "    %s — %s  θ=%.3f\n", p.A, p.B, p.Theta)
	}
	return sb.String()
}
