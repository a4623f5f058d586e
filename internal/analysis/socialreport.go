package analysis

import (
	"cmp"
	"errors"
	"fmt"
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
}

// PairStrength pairs users with their θ value.
type PairStrength struct {
	A, B  trace.UserID
	Theta float64
}

// BuildSocialReport constructs the θ > threshold graph over every user the
// model knows and analyzes it.
func BuildSocialReport(m *society.Model, threshold float64) (*SocialReport, error) {
	if m == nil {
		return nil, errors.New("analysis: nil model")
	}
	if threshold <= 0 {
		threshold = 0.3
	}
	// Users: anyone in a supported pair or typed. Edges come from pair
	// statistics only: iterating all O(n²) pairs is wasteful since
	// θ > threshold requires pair history for any realistic α·T.
	g := socialgraph.New()
	for u := range m.Types {
		g.AddVertex(u)
	}
	var top []PairStrength
	m.EachPair(func(p society.PairStat) {
		if !p.Supported {
			return
		}
		g.AddVertex(p.A)
		g.AddVertex(p.B)
		if theta := m.Index(p.A, p.B); theta > threshold {
			g.AddEdge(p.A, p.B, theta)
			top = append(top, PairStrength{A: p.A, B: p.B, Theta: theta})
		}
	})
	slices.SortFunc(top, func(a, b PairStrength) int {
		return cmp.Or(cmp.Compare(b.Theta, a.Theta), cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	top = top[:min(10, len(top))]
	return &SocialReport{
		Threshold:       threshold,
		Graph:           g.Analyze(),
		DegreeHistogram: g.DegreeHistogram(),
		TopPairs:        top,
	}, nil
}

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
