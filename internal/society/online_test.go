package society_test

// Black-box tests of the live learner against the event definitions this
// package states (encounter, co-leaving, support, θ). They were written
// against society.OnlineLearner; that type is now the tally core inside
// society/incremental's Engine, which they drive through its public
// surface. They stay in this directory under their old names because
// those names are the suite's recorded test ids.

import (
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
)

func onlineConfig() society.Config {
	cfg := society.DefaultConfig()
	cfg.MinEncounters = 1
	return cfg
}

// newLearner builds the live learner under a society configuration.
func newLearner(cfg society.Config) *incremental.Engine {
	return incremental.New(incremental.Config{Society: cfg})
}

func TestOnlineLearnerBasicFlow(t *testing.T) {
	l := newLearner(onlineConfig())
	// u1 and u2 share ap1 for an hour and leave within a minute.
	l.Connect("u1", "ap1", 0)
	l.Connect("u2", "ap1", 100)
	if err := l.Disconnect("u1", "ap1", 3600); err != nil {
		t.Fatal(err)
	}
	if err := l.Disconnect("u2", "ap1", 3660); err != nil {
		t.Fatal(err)
	}
	m := l.Model()
	if enc, col := m.Counts("u1", "u2"); enc != 1 || col != 1 {
		t.Errorf("encounters, co-leaves = %d, %d, want 1, 1", enc, col)
	}
	if prob, ok := m.Prob("u1", "u2"); prob != 1 || !ok {
		t.Errorf("P(L|E) = %v, %v, want 1", prob, ok)
	}
}

func TestOnlineLearnerNoCoLeaveOutsideWindow(t *testing.T) {
	l := newLearner(onlineConfig())
	l.Connect("u1", "ap1", 0)
	l.Connect("u2", "ap1", 0)
	if err := l.Disconnect("u1", "ap1", 3600); err != nil {
		t.Fatal(err)
	}
	// u2 leaves far outside the 5-minute window.
	if err := l.Disconnect("u2", "ap1", 3600+1200); err != nil {
		t.Fatal(err)
	}
	m := l.Model()
	if enc, col := m.Counts("u1", "u2"); enc != 1 || col != 0 {
		t.Errorf("encounters, co-leaves = %d, %d, want 1, 0", enc, col)
	}
	if prob, ok := m.Prob("u1", "u2"); prob != 0 || !ok {
		t.Errorf("P(L|E) = %v, %v, want 0", prob, ok)
	}
}

func TestOnlineLearnerShortOverlapNoEncounter(t *testing.T) {
	l := newLearner(onlineConfig())
	l.Connect("u1", "ap1", 0)
	l.Connect("u2", "ap1", 3500) // only 100s together
	if err := l.Disconnect("u1", "ap1", 3600); err != nil {
		t.Fatal(err)
	}
	if enc, _ := l.Model().Counts("u1", "u2"); enc != 0 {
		t.Error("100s overlap should not count as encounter")
	}
}

func TestOnlineLearnerDifferentAPsIndependent(t *testing.T) {
	l := newLearner(onlineConfig())
	l.Connect("u1", "ap1", 0)
	l.Connect("u2", "ap2", 0)
	if err := l.Disconnect("u1", "ap1", 3600); err != nil {
		t.Fatal(err)
	}
	if err := l.Disconnect("u2", "ap2", 3610); err != nil {
		t.Fatal(err)
	}
	if _, enc, col := society.AsMaps(l.Model()); len(col) != 0 || len(enc) != 0 {
		t.Error("cross-AP events should not correlate")
	}
}

func TestOnlineLearnerErrors(t *testing.T) {
	l := newLearner(onlineConfig())
	if err := l.Disconnect("ghost", "ap1", 10); err == nil {
		t.Error("disconnect without connect should error")
	}
	l.Connect("u1", "ap1", 100)
	if err := l.Disconnect("u1", "ap1", 50); err == nil {
		t.Error("time going backwards should error")
	}
}

func TestOnlineLearnerTypes(t *testing.T) {
	l := newLearner(onlineConfig())
	types := map[trace.UserID]int{"u1": 0, "u2": 0}
	matrix := [][]float64{{0.6}}
	l.SetTypes(types, matrix)
	m := l.Model()
	if m.Types["u1"] != 0 || m.TypeMatrix[0][0] != 0.6 {
		t.Errorf("types not carried: %+v", m)
	}
	// θ with no history = α·T.
	want := onlineConfig().Alpha * 0.6
	if got := m.Index("u1", "u2"); got != want {
		t.Errorf("Index = %v, want %v", got, want)
	}
	// Mutating the source maps must not affect the learner.
	types["u1"] = 99
	matrix[0][0] = 0
	m2 := l.Model()
	if m2.Types["u1"] != 0 || m2.TypeMatrix[0][0] != 0.6 {
		t.Error("SetTypes should copy its inputs")
	}
}

func TestOnlineLearnerSupportThreshold(t *testing.T) {
	cfg := onlineConfig()
	cfg.MinEncounters = 2
	l := newLearner(cfg)
	l.Connect("u1", "ap1", 0)
	l.Connect("u2", "ap1", 0)
	if err := l.Disconnect("u1", "ap1", 3600); err != nil {
		t.Fatal(err)
	}
	if err := l.Disconnect("u2", "ap1", 3605); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Model().Prob("u1", "u2"); ok {
		t.Error("single encounter should be below the support threshold")
	}
}

func TestOnlineLearnerConcurrency(t *testing.T) {
	l := newLearner(onlineConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := trace.UserID(rune('a' + g))
			for i := 0; i < 50; i++ {
				ts := int64(i * 1000)
				l.Connect(u, "ap1", ts)
				if err := l.Disconnect(u, "ap1", ts+900); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		u := trace.UserID(rune('a' + g))
		if err := l.Disconnect(u, "ap1", 1_000_000); err != incremental.ErrNotConnected {
			t.Errorf("%s: %v, want every session closed", u, err)
		}
	}
	l.Model() // must not race
}

func TestOnlineLearnerStats(t *testing.T) {
	l := newLearner(onlineConfig())
	l.Connect("u1", "ap1", 0)
	l.Connect("u2", "ap1", 0)
	// Two open sessions and, until one of them ends, nothing tallied.
	if _, enc, col := society.AsMaps(l.Model()); len(enc) != 0 || len(col) != 0 {
		t.Errorf("tallies before any session end: %v, %v", enc, col)
	}
	for _, u := range []trace.UserID{"u1", "u2"} {
		if err := l.Disconnect(u, "ap1", 10); err != nil {
			t.Errorf("%s: %v, want an open session", u, err)
		}
		if err := l.Disconnect(u, "ap1", 20); err != incremental.ErrNotConnected {
			t.Errorf("%s closed twice: %v", u, err)
		}
	}
}

func TestOnlineLearnerStatsCountsStackedSessions(t *testing.T) {
	// Regression: open sessions were once tracked per distinct user and
	// AP, so a user with stacked overlapping sessions was undercounted.
	// Each open session closes individually.
	l := newLearner(onlineConfig())
	l.Connect("u1", "ap1", 0)
	l.Connect("u1", "ap1", 100)
	l.Connect("u1", "ap2", 200)
	l.Connect("u2", "ap1", 300)
	for _, c := range []struct {
		u    trace.UserID
		ap   trace.APID
		open int
	}{{"u1", "ap1", 2}, {"u1", "ap2", 1}, {"u2", "ap1", 1}} {
		for i := 0; i < c.open; i++ {
			if err := l.Disconnect(c.u, c.ap, 4000); err != nil {
				t.Errorf("%s on %s, close %d of %d: %v", c.u, c.ap, i+1, c.open, err)
			}
		}
		if err := l.Disconnect(c.u, c.ap, 4000); err != incremental.ErrNotConnected {
			t.Errorf("%s on %s had more than %d open sessions: %v", c.u, c.ap, c.open, err)
		}
	}
}

func TestOnlineLearnerStackedSessionsNoEncounterDoubleCount(t *testing.T) {
	// Regression: with u holding two overlapping sessions on one AP and w
	// present throughout, each close of u's sessions re-counted the same
	// co-presence with w, inflating the encounter tally. Stacked sessions
	// form one presence and must yield exactly one encounter.
	l := newLearner(onlineConfig())
	l.Connect("w", "ap1", 0)
	l.Connect("u", "ap1", 0)
	l.Connect("u", "ap1", 100) // stacked second session
	if err := l.Disconnect("u", "ap1", 3600); err != nil {
		t.Fatal(err)
	}
	if enc, _ := l.Model().Counts("u", "w"); enc != 0 {
		t.Errorf("encounters after first stacked close = %d, want 0 (presence continues)", enc)
	}
	if err := l.Disconnect("u", "ap1", 4000); err != nil {
		t.Fatal(err)
	}
	if enc, _ := l.Model().Counts("u", "w"); enc != 1 {
		t.Errorf("encounters after presence end = %d, want 1", enc)
	}
	// w's own close counts the (w-presence, nothing-open) side: u is gone,
	// so no further encounter accrues.
	if err := l.Disconnect("w", "ap1", 4100); err != nil {
		t.Fatal(err)
	}
	if enc, _ := l.Model().Counts("u", "w"); enc != 1 {
		t.Errorf("final encounters = %d, want 1", enc)
	}
}
