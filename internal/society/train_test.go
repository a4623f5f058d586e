package society

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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
			gotProb, gotEnc, gotCol := asMaps(m)
			if !reflect.DeepEqual(gotEnc, enc) {
				t.Errorf("window %d history %d: encounters differ (%d pairs, brute force %d)", window, history, len(gotEnc), len(enc))
			}
			if !reflect.DeepEqual(gotCol, col) {
				t.Errorf("window %d history %d: co-leaves differ (%d pairs, brute force %d)", window, history, len(gotCol), len(col))
			}
			if !reflect.DeepEqual(gotProb, prob) || m.NumPairs() != len(prob) {
				t.Errorf("window %d history %d: probabilities differ (%d pairs, NumPairs %d, brute force %d)", window, history, len(gotProb), m.NumPairs(), len(prob))
			}
			// BuildTypeMatrix orders the pairs by comparing ids; Train
			// never sees them as strings.
			if want := BuildTypeMatrix(enc, col, m.Types, m.K()); !reflect.DeepEqual(m.TypeMatrix, want) {
				t.Errorf("window %d history %d: TypeMatrix\n got %v\nwant %v", window, history, m.TypeMatrix, want)
			}
		}
	}
}

// TestModelAccessorsAgainstBruteForce: what Prob, Counts, EachPair and
// NumPairs answer is what the extractors count, pair by pair, for the
// paper's 15-day window and the full one; and the corners — a user the
// model has never seen, a user against themself, a typed user with no
// pair — read 0, unsupported, and the prior alone.
func TestModelAccessorsAgainstBruteForce(t *testing.T) {
	tr, _ := smallCampus(t)
	_, end := tr.TimeRange()
	// A user with a profile, so a type, and no session: prior-only.
	flows := append(slices.Clone(tr.Flows), trace.Flow{User: "loner", Start: end - 3600, End: end - 3500, Proto: "tcp", DstPort: 443, Bytes: 1000})
	profiles := apps.BuildProfiles(flows, synth.DefaultConfig().Epoch, apps.NewClassifier())
	for _, history := range []int{15, 0} {
		cfg := DefaultConfig()
		cfg.HistoryDays = history
		sessions := tr.Sessions
		if history > 0 {
			sessions = slices.DeleteFunc(slices.Clone(sessions), func(s trace.Session) bool {
				return s.ConnectAt < end-int64(history)*86400
			})
		}
		m, err := Train(tr, profiles, cfg)
		if err != nil {
			t.Fatal(err)
		}

		wantEnc := ExtractEncounters(sessions, cfg.MinEncounterSeconds)
		wantCol, wantProb := map[Pair]int{}, map[Pair]float64{}
		for _, ev := range ExtractCoLeavings(sessions, cfg.CoLeaveWindowSeconds) {
			wantCol[ev.Pair]++
		}
		for p, e := range wantEnc {
			if e >= cfg.MinEncounters {
				wantProb[p], _ = CoLeaveProb(e, wantCol[p], 0)
			}
		}
		prob, enc, col := asMaps(m)
		if !reflect.DeepEqual(prob, wantProb) || !reflect.DeepEqual(enc, wantEnc) || !reflect.DeepEqual(col, wantCol) {
			t.Errorf("history %d: %d/%d/%d probabilities/encounters/co-leaves, the extractors give %d/%d/%d (or other values)",
				history, len(prob), len(enc), len(col), len(wantProb), len(wantEnc), len(wantCol))
		}

		var last Pair
		supported := 0
		m.EachPair(func(p PairStat) {
			if p.A >= p.B || last.compare(p.Pair) >= 0 {
				t.Fatalf("history %d: EachPair yields %v after %v", history, p.Pair, last)
			}
			last = p.Pair
			if p.Supported {
				supported++
			}
			// Either order of the two users reads the same entry.
			gotProb, ok := m.Prob(p.B, p.A)
			gotEnc, gotCol := m.Counts(p.B, p.A)
			if gotProb != p.Prob || ok != p.Supported || gotEnc != p.Encounters || gotCol != p.CoLeaves {
				t.Fatalf("history %d: %v: Prob %v (%v), Counts %d, %d; EachPair gave %+v", history, p.Pair, gotProb, ok, gotEnc, gotCol, p)
			}
		})
		if supported != m.NumPairs() || supported != len(wantProb) || supported < 1000 {
			t.Errorf("history %d: %d supported pairs walked, NumPairs %d, the extractors support %d", history, supported, m.NumPairs(), len(wantProb))
		}

		known := last.A
		tl, typed := m.Types["loner"]
		if _, paired := m.pairs.rank["loner"]; !typed || !paired {
			t.Fatalf("history %d: the pairless user has type %d (%v), rank %v: the prior-only case is not covered", history, tl, typed, paired)
		}
		prior := float64(m.Alpha * m.TypeMatrix[tl][m.Types[known]])
		for _, tc := range []struct {
			name  string
			u, v  trace.UserID
			theta float64
		}{
			{"unknown user", "nobody", known, 0},
			{"two unknown users", "nobody", "no one", 0},
			{"a user and themself", known, known, 0},
			{"typed user with no pair", "loner", known, prior},
			{"typed user with no pair, reversed", known, "loner", float64(m.Alpha * m.TypeMatrix[m.Types[known]][tl])},
		} {
			p, ok := m.Prob(tc.u, tc.v)
			e, c := m.Counts(tc.u, tc.v)
			if p != 0 || ok || e != 0 || c != 0 || m.Index(tc.u, tc.v) != tc.theta {
				t.Errorf("history %d, %s: Prob %v (%v), Counts %d, %d, Index %v; want 0 (false), 0, 0, %v",
					history, tc.name, p, ok, e, c, m.Index(tc.u, tc.v), tc.theta)
			}
		}
		if prior == 0 {
			t.Errorf("history %d: the prior between loner's type and %s's is 0: Index cannot show it", history, known)
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
		"pair entries": &m.pairs.entries[0] == &w.pairs.entries[0],
		"user ranks":   reflect.ValueOf(m.pairs.rank).Pointer() == reflect.ValueOf(w.pairs.rank).Pointer(),
		"Types":        reflect.ValueOf(m.Types).Pointer() == reflect.ValueOf(w.Types).Pointer(),
	} {
		if !shared {
			t.Errorf("%s was copied, not shared", name)
		}
	}
	priors := 0.0
	for _, pair := range [][2]trace.UserID{{"u1", "u2"}, {"u1", "u3"}, {"u2", "u3"}} {
		u, v := pair[0], pair[1]
		prob, _ := m.Prob(u, v)
		prior := m.TypeMatrix[m.Types[u]][m.Types[v]]
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
// produced, matrix, pair table and close-friend rows.
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
	_, _, colA := asMaps(wantModel[seq[0]])
	if _, _, colB := asMaps(wantModel[seq[5]]); reflect.DeepEqual(colA, colB) {
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
