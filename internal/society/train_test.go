package society

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// smallCampus generates a 150-user, 20-day campus and its profiles.
func smallCampus(t *testing.T) (*trace.Trace, *apps.ProfileStore) {
	t.Helper()
	campus := synth.DefaultConfig()
	campus.Users, campus.Buildings, campus.Days = 150, 3, 20
	tr, _, err := synth.Generate(campus)
	if err != nil {
		t.Fatal(err)
	}
	return tr, apps.BuildProfiles(tr.Flows, campus.Epoch, apps.NewClassifier())
}

// bruteTallies counts encounters and co-leaves by testing every two
// sessions against the definitions, with no grouping, sorting or early
// exit to share a mistake with the extractors.
func bruteTallies(sessions []trace.Session, minOverlap, window int64) (enc, col map[Pair]int, stacked int) {
	enc, col = make(map[Pair]int), make(map[Pair]int)
	for i, x := range sessions {
		for _, y := range sessions[i+1:] {
			if x.AP != y.AP {
				continue
			}
			if x.User == y.User {
				if x.Overlap(y) > 0 {
					stacked++
				}
				continue
			}
			if x.Overlap(y) >= minOverlap {
				enc[MakePair(x.User, y.User)]++
			}
			if gap := x.DisconnectAt - y.DisconnectAt; gap >= -window && gap <= window {
				col[MakePair(x.User, y.User)]++
			}
		}
	}
	return enc, col, stacked
}

func TestTrainMatchesBruteForce(t *testing.T) {
	tr, profiles := smallCampus(t)
	_, end := tr.TimeRange()
	for _, window := range []int64{60, 300, 1200} {
		for _, history := range []int{0, 1, 15} {
			cfg := DefaultConfig()
			cfg.CoLeaveWindowSeconds = window
			cfg.HistoryDays = history
			m, err := Train(tr, profiles, cfg)
			if err != nil {
				t.Fatal(err)
			}

			sessions := tr.Sessions
			if history > 0 {
				sessions = nil
				for _, s := range tr.Sessions {
					if s.ConnectAt >= end-int64(history)*86400 {
						sessions = append(sessions, s)
					}
				}
			}
			enc, col, stacked := bruteTallies(sessions, cfg.MinEncounterSeconds, window)
			if history != 1 && stacked == 0 {
				t.Fatalf("window %d history %d: the campus has no stacked same-user/same-AP sessions", window, history)
			}
			prob := make(map[Pair]float64)
			for p, e := range enc {
				if e >= cfg.MinEncounters {
					prob[p] = math.Min(1, float64(col[p])/float64(e))
				}
			}
			// reflect.DeepEqual compares floats with ==: bit for bit,
			// there being no NaN or negative zero here.
			if !reflect.DeepEqual(m.Encounters, enc) {
				t.Errorf("window %d history %d: Encounters differ (%d pairs, brute force %d)", window, history, len(m.Encounters), len(enc))
			}
			if !reflect.DeepEqual(m.CoLeaves, col) {
				t.Errorf("window %d history %d: CoLeaves differ (%d pairs, brute force %d)", window, history, len(m.CoLeaves), len(col))
			}
			if !reflect.DeepEqual(m.PairProb, prob) {
				t.Errorf("window %d history %d: PairProb differs (%d pairs, brute force %d)", window, history, len(m.PairProb), len(prob))
			}
			// BuildTypeMatrix orders the pairs by comparing ids; Train
			// never sees them as strings.
			if want := BuildTypeMatrix(enc, col, m.Types, m.K()); !reflect.DeepEqual(m.TypeMatrix, want) {
				t.Errorf("window %d history %d: TypeMatrix\n got %v\nwant %v", window, history, m.TypeMatrix, want)
			}
		}
	}
}

func TestWithAlphaSharesTalliesNotAlpha(t *testing.T) {
	tr, profiles := buildTrainingTrace()
	cfg := DefaultConfig()
	cfg.NumTypes = 2
	cfg.HistoryDays = 0
	cfg.Alpha = 0.1
	m, err := Train(tr, profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := m.WithAlpha(0.5)
	if m.Alpha != 0.1 || w.Alpha != 0.5 {
		t.Fatalf("Alpha: receiver %v (want 0.1), copy %v (want 0.5)", m.Alpha, w.Alpha)
	}
	for name, shared := range map[string]bool{
		"PairProb":   reflect.ValueOf(m.PairProb).Pointer() == reflect.ValueOf(w.PairProb).Pointer(),
		"Encounters": reflect.ValueOf(m.Encounters).Pointer() == reflect.ValueOf(w.Encounters).Pointer(),
		"CoLeaves":   reflect.ValueOf(m.CoLeaves).Pointer() == reflect.ValueOf(w.CoLeaves).Pointer(),
		"Types":      reflect.ValueOf(m.Types).Pointer() == reflect.ValueOf(w.Types).Pointer(),
	} {
		if !shared {
			t.Errorf("%s was copied, not shared", name)
		}
	}
	priors := 0.0
	for _, pair := range [][2]trace.UserID{{"u1", "u2"}, {"u1", "u3"}, {"u2", "u3"}} {
		u, v := pair[0], pair[1]
		prob, prior := m.PairProb[MakePair(u, v)], m.TypeMatrix[m.Types[u]][m.Types[v]]
		priors += prior
		if got, want := m.Index(u, v), prob+0.1*prior; got != want {
			t.Errorf("receiver: θ(%s,%s) = %v, want P + 0.1·T = %v", u, v, got, want)
		}
		if got, want := w.Index(u, v), prob+0.5*prior; got != want {
			t.Errorf("copy: θ(%s,%s) = %v, want P + 0.5·T = %v", u, v, got, want)
		}
	}
	if priors == 0 {
		t.Error("every type prior is 0: the test cannot see α")
	}
}

// TestTrainReproducible: two trainings of one input agree to the last
// bit. Centroids once depended on the iteration order of a map of daily
// profiles.
func TestTrainReproducible(t *testing.T) {
	tr, profiles := smallCampus(t)
	first, err := Train(tr, profiles, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Train(tr, profiles, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range first.Centroids {
			for i, v := range c {
				if math.Float64bits(v) != math.Float64bits(again.Centroids[k][i]) {
					t.Fatalf("run %d: centroid %d[%d] = %v, first run %v", run, k, i, again.Centroids[k][i], v)
				}
			}
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: models differ", run)
		}
	}
}

// TestTrainScratchReuseBitIdentical: Train's pooled buffers carry nothing
// from one training into the next. A sweep's sequence of windows — long
// after short after long, two co-leave intervals, a window that holds no
// session in the middle — is trained in one process and then from four
// goroutines at once, and every model must equal the first one its config
// produced, maps, matrix, pair table and close-friend rows.
func TestTrainScratchReuseBitIdentical(t *testing.T) {
	tr, profiles := smallCampus(t)
	// One three-day session and a one-day history: the window opens after
	// the only connect, so Train returns before it borrows a scratch.
	empty := &trace.Trace{Sessions: []trace.Session{{User: "u", AP: "ap", DisconnectAt: 3 * 86400}}}

	type training struct {
		tr      *trace.Trace
		history int
		window  int64
	}
	var seq []training
	for _, window := range []int64{60, 1200} {
		seq = append(seq, training{tr, 0, window}, training{tr, 1, window},
			training{empty, 1, window}, training{tr, 15, window}, training{tr, 0, window})
	}
	type rows struct {
		Users   []trace.UserID
		Start   []int
		Friends []trace.UserID
		Theta   []float64
	}
	train := func(tc training) (*Model, rows, error) {
		cfg := DefaultConfig()
		cfg.HistoryDays, cfg.CoLeaveWindowSeconds = tc.history, tc.window
		m, err := Train(tc.tr, profiles, cfg)
		if err != nil {
			return nil, rows{}, err
		}
		var r rows
		r.Users, r.Start, r.Friends, r.Theta = m.CloseFriendRows(0.3)
		return m, r, nil
	}

	wantModel, wantRows := make(map[training]*Model), make(map[training]rows)
	check := func(who string) {
		for i, tc := range seq {
			m, r, err := train(tc)
			if tc.tr == empty {
				if !errors.Is(err, ErrNoSessions) {
					t.Errorf("%s step %d: empty window: err = %v, want ErrNoSessions", who, i, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s step %d: %v", who, i, err)
				continue
			}
			if who == "first pass" {
				if _, seen := wantModel[tc]; !seen {
					wantModel[tc], wantRows[tc] = m, r
					continue
				}
			}
			if !reflect.DeepEqual(m, wantModel[tc]) {
				t.Errorf("%s step %d (history %d, window %d): model differs from the config's first", who, i, tc.history, tc.window)
			}
			if !reflect.DeepEqual(r, wantRows[tc]) {
				t.Errorf("%s step %d (history %d, window %d): close-friend rows differ from the config's first", who, i, tc.history, tc.window)
			}
		}
	}
	check("first pass")
	if len(wantModel) != 6 || len(wantRows[seq[0]].Friends) == 0 {
		t.Fatalf("%d reference models, %d close friends in the first: nothing to compare", len(wantModel), len(wantRows[seq[0]].Friends))
	}
	if a, b := wantModel[seq[0]], wantModel[seq[5]]; reflect.DeepEqual(a.CoLeaves, b.CoLeaves) {
		t.Fatal("the two co-leave windows count the same co-leaves: the sequence cannot see a stale event list")
	}
	check("second pass")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(fmt.Sprintf("goroutine %d", g))
		}()
	}
	wg.Wait()
}
