package socialgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestMaxCliqueEmpty(t *testing.T) {
	if got := MaxClique(New()); got != nil {
		t.Errorf("MaxClique(empty) = %v, want nil", got)
	}
}

func TestMaxCliqueSingleVertex(t *testing.T) {
	g := New()
	g.AddVertex("solo")
	got := MaxClique(g)
	if len(got) != 1 || got[0] != "solo" {
		t.Errorf("MaxClique = %v, want [solo]", got)
	}
}

func TestMaxCliqueTriangleInPath(t *testing.T) {
	g := New()
	// Path a-b-c-d plus triangle c-d-e.
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("c", "d", 1)
	g.AddEdge("d", "e", 1)
	g.AddEdge("c", "e", 1)
	got := MaxClique(g)
	want := []trace.UserID{"c", "d", "e"}
	if len(got) != 3 {
		t.Fatalf("MaxClique = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MaxClique = %v, want %v", got, want)
		}
	}
}

func TestMaxCliqueCompleteGraph(t *testing.T) {
	g := New()
	names := []trace.UserID{"a", "b", "c", "d", "e"}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			g.AddEdge(names[i], names[j], 1)
		}
	}
	got := MaxClique(g)
	if len(got) != 5 {
		t.Errorf("complete graph clique size = %d, want 5", len(got))
	}
}

func TestMaxCliqueWeightTieBreak(t *testing.T) {
	g := New()
	// Two disjoint triangles; the second is heavier and must win.
	g.AddEdge("a", "b", 0.1)
	g.AddEdge("b", "c", 0.1)
	g.AddEdge("a", "c", 0.1)
	g.AddEdge("x", "y", 0.9)
	g.AddEdge("y", "z", 0.9)
	g.AddEdge("x", "z", 0.9)
	got := MaxClique(g)
	if len(got) != 3 || got[0] != "x" {
		t.Errorf("MaxClique = %v, want the heavy triangle [x y z]", got)
	}
}

// bruteMaxCliqueSize enumerates all subsets (n <= ~16) to find the true
// maximum clique size.
func bruteMaxCliqueSize(g *Graph) int {
	vs := g.Vertices()
	n := len(vs)
	best := 0
	for mask := 1; mask < 1<<n; mask++ {
		var set []trace.UserID
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, vs[i])
			}
		}
		if len(set) > best && g.IsClique(set) {
			best = len(set)
		}
	}
	return best
}

func TestMaxCliqueAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(9) // up to 12 vertices
		p := 0.2 + rng.Float64()*0.6
		g := New()
		for i := 0; i < n; i++ {
			g.AddVertex(trace.UserID(fmt.Sprintf("v%02d", i)))
		}
		vs := g.Vertices()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(vs[i], vs[j], rng.Float64())
				}
			}
		}
		got := MaxClique(g)
		if !g.IsClique(got) {
			t.Fatalf("trial %d: result %v is not a clique", trial, got)
		}
		want := bruteMaxCliqueSize(g)
		if len(got) != want {
			t.Fatalf("trial %d: clique size = %d, want %d (graph %v)",
				trial, len(got), want, g)
		}
	}
}

func TestExtractCliqueCoverPartitions(t *testing.T) {
	g := New()
	// Triangle + edge + isolated vertex.
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("a", "c", 1)
	g.AddEdge("x", "y", 1)
	g.AddVertex("solo")
	cover := ExtractCliqueCover(g)
	if len(cover) != 3 {
		t.Fatalf("cover = %v, want 3 cliques", cover)
	}
	if len(cover[0]) != 3 || len(cover[1]) != 2 || len(cover[2]) != 1 {
		t.Errorf("cover sizes = %d/%d/%d, want 3/2/1",
			len(cover[0]), len(cover[1]), len(cover[2]))
	}
	// Partition property: every vertex exactly once.
	seen := map[trace.UserID]int{}
	for _, cl := range cover {
		for _, u := range cl {
			seen[u]++
		}
	}
	if len(seen) != g.NumVertices() {
		t.Errorf("cover misses vertices: %v", seen)
	}
	for u, c := range seen {
		if c != 1 {
			t.Errorf("vertex %s appears %d times", u, c)
		}
	}
	// Original graph untouched.
	if g.NumVertices() != 6 {
		t.Error("ExtractCliqueCover mutated its input")
	}
}

func TestExtractCliqueCoverRandomPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g := New()
	const n = 25
	for i := 0; i < n; i++ {
		g.AddVertex(trace.UserID(fmt.Sprintf("u%02d", i)))
	}
	vs := g.Vertices()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.AddEdge(vs[i], vs[j], rng.Float64())
			}
		}
	}
	cover := ExtractCliqueCover(g)
	seen := map[trace.UserID]bool{}
	total := 0
	prevSize := n + 1
	for _, cl := range cover {
		if !g.IsClique(cl) {
			t.Fatalf("cover element %v is not a clique", cl)
		}
		if len(cl) > prevSize {
			t.Errorf("cover not extracted largest-first: %d after %d",
				len(cl), prevSize)
		}
		prevSize = len(cl)
		for _, u := range cl {
			if seen[u] {
				t.Fatalf("vertex %s covered twice", u)
			}
			seen[u] = true
			total++
		}
	}
	if total != n {
		t.Errorf("covered %d vertices, want %d", total, n)
	}
}

// TestCliqueCoverEdgelessTail: on 1 000 random sparse graphs — edgeless
// from the start, edgeless after a few cliques, never edgeless — the
// cover equals what one MaxClique per extraction yields, singletons
// included and in the same order, and the input graph is left alone.
func TestCliqueCoverEdgelessTail(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 1000; trial++ {
		g := New()
		n := rng.Intn(14)
		for i := 0; i < n; i++ {
			g.AddVertex(trace.UserID(fmt.Sprintf("u%02d", i)))
		}
		vs := g.Vertices()
		density := []float64{0, 0.05, 0.2}[trial%3]
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					g.AddEdge(vs[i], vs[j], rng.Float64())
				}
			}
		}
		edges := g.NumEdges()

		var want [][]trace.UserID
		for work := g.Clone(); work.NumVertices() > 0; {
			clique := MaxClique(work)
			want = append(want, clique)
			for _, u := range clique {
				work.RemoveVertex(u)
			}
		}
		got := ExtractCliqueCover(g)
		if !slices.EqualFunc(got, want, func(a, b []trace.UserID) bool { return slices.Equal(a, b) }) {
			t.Fatalf("trial %d (%d vertices, %d edges): cover %v, one MaxClique at a time gives %v",
				trial, n, edges, got, want)
		}
		if g.NumVertices() != n || g.NumEdges() != edges {
			t.Fatalf("trial %d: ExtractCliqueCover mutated its input", trial)
		}
	}
}

func BenchmarkMaxClique50(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := New()
	const n = 50
	for i := 0; i < n; i++ {
		g.AddVertex(trace.UserID(fmt.Sprintf("u%02d", i)))
	}
	vs := g.Vertices()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.AddEdge(vs[i], vs[j], rng.Float64())
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxClique(g)
	}
}
