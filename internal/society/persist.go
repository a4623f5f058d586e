package society

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/s3wlan/s3wlan/internal/atomicfile"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Model persistence: a controller must survive restarts without losing
// weeks of learned sociality, so trained models serialize to a stable
// JSON document. Pair keys flatten to "a|b" (canonical order) for JSON
// object keys.

// modelDoc is the serialized form of a Model.
type modelDoc struct {
	Version    int                  `json:"version"`
	Alpha      float64              `json:"alpha"`
	PairProb   map[string]float64   `json:"pair_prob"`
	Encounters map[string]int       `json:"encounters"`
	CoLeaves   map[string]int       `json:"co_leaves"`
	Types      map[trace.UserID]int `json:"types"`
	TypeMatrix [][]float64          `json:"type_matrix"`
	Centroids  [][]float64          `json:"centroids,omitempty"`
}

const modelVersion = 1

func pairKey(p Pair) string { return string(p.A) + "|" + string(p.B) }

func parsePairKey(k string) (Pair, error) {
	a, b, ok := strings.Cut(k, "|")
	if !ok || a == "" || b == "" || a == b {
		return Pair{}, fmt.Errorf("society: malformed pair key %q", k)
	}
	return MakePair(trace.UserID(a), trace.UserID(b)), nil
}

// WriteModel serializes m to w as JSON, in one Write. A user id
// containing '|' has no unambiguous pair key and is refused.
func WriteModel(w io.Writer, m *Model) error {
	if m == nil {
		return fmt.Errorf("society: nil model")
	}
	doc := modelDoc{
		Version:    modelVersion,
		Alpha:      m.Alpha,
		PairProb:   make(map[string]float64, m.NumPairs()),
		Encounters: make(map[string]int, len(m.pairs.entries)),
		CoLeaves:   make(map[string]int),
		Types:      m.Types,
		TypeMatrix: m.TypeMatrix,
		Centroids:  m.Centroids,
	}
	for _, u := range m.pairs.users {
		if strings.Contains(string(u), "|") {
			return fmt.Errorf("society: user id %q contains '|'", u)
		}
	}
	m.EachPair(func(p PairStat) {
		k := pairKey(p.Pair)
		if p.Supported {
			doc.PairProb[k] = p.Prob
		}
		if p.Encounters > 0 {
			doc.Encounters[k] = p.Encounters
		}
		if p.CoLeaves > 0 {
			doc.CoLeaves[k] = p.CoLeaves
		}
	})
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("society: encode model: %w", err)
	}
	return nil
}

// ReadModel parses a serialized model from r. A document that lists a
// pair under two keys ("a|b" and "b|a") is rejected, not resolved.
func ReadModel(r io.Reader) (*Model, error) {
	var doc modelDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("society: decode model: %w", err)
	}
	if doc.Version != modelVersion {
		return nil, fmt.Errorf("society: unsupported model version %d", doc.Version)
	}
	keys := make(map[string]bool, len(doc.PairProb)+len(doc.Encounters))
	for k := range doc.PairProb {
		keys[k] = true
	}
	for k := range doc.Encounters {
		keys[k] = true
	}
	for k := range doc.CoLeaves {
		keys[k] = true
	}
	pairs := make([]PairStat, 0, len(keys))
	for k := range keys {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		prob, supported := doc.PairProb[k]
		pairs = append(pairs, PairStat{p, doc.Encounters[k], doc.CoLeaves[k], prob, supported})
	}
	return NewModel(pairs, doc.Types, doc.TypeMatrix, doc.Centroids, doc.Alpha)
}

// SaveModel writes the model to path. The write is atomic (temp file +
// fsync + rename): a crash mid-save leaves any previous model at path
// intact, never a truncated one.
func SaveModel(path string, m *Model) error {
	if err := atomicfile.WriteFile(path, func(w io.Writer) error {
		return WriteModel(w, m)
	}); err != nil {
		return fmt.Errorf("society: save %s: %w", path, err)
	}
	return nil
}

// LoadModel reads a model from path.
func LoadModel(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("society: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadModel(f)
}

// TopPairs returns the n strongest pairs by P(L|E), strongest first
// (ties: lexicographic) — a monitoring/debugging helper.
func (m *Model) TopPairs(n int) []Pair {
	pairs := make([]Pair, 0, m.NumPairs())
	m.EachPair(func(p PairStat) {
		if p.Supported {
			pairs = append(pairs, p.Pair)
		}
	})
	prob := func(p Pair) float64 { return m.pairs.find(p.A, p.B).prob }
	slices.SortStableFunc(pairs, func(p, q Pair) int { return cmp.Compare(prob(q), prob(p)) })
	return pairs[:min(n, len(pairs))]
}
