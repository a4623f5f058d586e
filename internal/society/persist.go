package society

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

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
	for i := 0; i < len(k); i++ {
		if k[i] == '|' {
			a, b := trace.UserID(k[:i]), trace.UserID(k[i+1:])
			if a == "" || b == "" || a == b {
				return Pair{}, fmt.Errorf("society: malformed pair key %q", k)
			}
			return MakePair(a, b), nil
		}
	}
	return Pair{}, fmt.Errorf("society: malformed pair key %q", k)
}

// WriteModel serializes m to w as JSON.
func WriteModel(w io.Writer, m *Model) error {
	if m == nil {
		return fmt.Errorf("society: nil model")
	}
	doc := modelDoc{
		Version:    modelVersion,
		Alpha:      m.Alpha,
		PairProb:   make(map[string]float64, len(m.PairProb)),
		Encounters: make(map[string]int, len(m.Encounters)),
		CoLeaves:   make(map[string]int, len(m.CoLeaves)),
		Types:      m.Types,
		TypeMatrix: m.TypeMatrix,
		Centroids:  m.Centroids,
	}
	for p, v := range m.PairProb {
		doc.PairProb[pairKey(p)] = v
	}
	for p, v := range m.Encounters {
		doc.Encounters[pairKey(p)] = v
	}
	for p, v := range m.CoLeaves {
		doc.CoLeaves[pairKey(p)] = v
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("society: encode model: %w", err)
	}
	return bw.Flush()
}

// ReadModel parses a serialized model from r.
func ReadModel(r io.Reader) (*Model, error) {
	var doc modelDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("society: decode model: %w", err)
	}
	if doc.Version != modelVersion {
		return nil, fmt.Errorf("society: unsupported model version %d", doc.Version)
	}
	m := &Model{
		Alpha:      doc.Alpha,
		PairProb:   make(map[Pair]float64, len(doc.PairProb)),
		Encounters: make(map[Pair]int, len(doc.Encounters)),
		CoLeaves:   make(map[Pair]int, len(doc.CoLeaves)),
		Types:      doc.Types,
		TypeMatrix: doc.TypeMatrix,
		Centroids:  doc.Centroids,
	}
	if m.Types == nil {
		m.Types = make(map[trace.UserID]int)
	}
	for k, v := range doc.PairProb {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		m.PairProb[p] = v
	}
	for k, v := range doc.Encounters {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		m.Encounters[p] = v
	}
	for k, v := range doc.CoLeaves {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		m.CoLeaves[p] = v
	}
	return m, nil
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
	pairs := make([]Pair, 0, len(m.PairProb))
	for p := range m.PairProb {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(p, q Pair) int {
		return cmp.Or(cmp.Compare(m.PairProb[q], m.PairProb[p]), p.compare(q))
	})
	if n > len(pairs) {
		n = len(pairs)
	}
	return pairs[:n]
}
