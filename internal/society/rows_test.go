package society

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// scanRow is the definition CloseFriendRows must reproduce: Index
// against every other user, in id order.
func scanRow(m *Model, u trace.UserID, everyone []trace.UserID, threshold float64) (friends []trace.UserID, theta []float64) {
	for _, v := range everyone {
		if th := m.Index(u, v); v != u && th > threshold {
			friends, theta = append(friends, v), append(theta, th)
		}
	}
	return friends, theta
}

// TestModelRowsMatchIndex: for a trained model, its WithAlpha copies and
// the same models read back from their serialized form, every user's
// row — over the users with a session in the history window and the
// users with a type — lists exactly {v : Index(u,v) > threshold},
// sorted, with θ equal to Index bit for bit. The type matrix is
// hand-made so that, at the larger α, two type pairs cross the
// threshold on the prior alone.
func TestModelRowsMatchIndex(t *testing.T) {
	tr, profiles := smallCampus(t)
	cfg := DefaultConfig()
	cfg.HistoryDays = 10
	// Five users stop showing up before the window opens; their profiles,
	// and so their types, remain.
	_, before := tr.TimeRange()
	gone := map[trace.UserID]bool{"user-0003": true, "user-0042": true, "user-0077": true, "user-0100": true, "user-0149": true}
	tr.Sessions = slices.DeleteFunc(tr.Sessions, func(s trace.Session) bool {
		return gone[s.User] && s.ConnectAt >= before-int64(cfg.HistoryDays)*86400
	})
	_, end := tr.TimeRange()
	trained, err := Train(tr, profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Installed before anything reads the model; the pair table does not
	// depend on it. α·T: 0.09 / 0.27 / 0.45 between types 0 and 1,
	// 0.07 / 0.21 / 0.35 inside type 2, at α = 0.1 / 0.3 / 0.5.
	trained.TypeMatrix = [][]float64{
		{0.05, 0.9, 0, 0.1},
		{0.9, 0.02, 0.1, 0},
		{0, 0.1, 0.7, 0.2},
		{0.1, 0, 0.2, 0.3},
	}

	inWindow := map[trace.UserID]bool{}
	for _, s := range tr.Sessions {
		if s.ConnectAt >= end-int64(cfg.HistoryDays)*86400 {
			inWindow[s.User] = true
		}
	}
	everyone := make([]trace.UserID, 0, len(inWindow))
	for u := range inWindow {
		everyone = append(everyone, u)
	}
	typedOnly := 0
	for u := range trained.Types {
		if !inWindow[u] {
			everyone = append(everyone, u)
			typedOnly++
		}
	}
	slices.Sort(everyone)
	if typedOnly != len(gone) || trained.NumPairs() < 1000 {
		t.Fatalf("%d typed users outside the window (want %d), %d supported pairs: the cases are not covered",
			typedOnly, len(gone), trained.NumPairs())
	}

	for _, alpha := range []float64{0.1, 0.3, 0.5} {
		copyOf := trained.WithAlpha(alpha)
		var buf bytes.Buffer
		if err := WriteModel(&buf, copyOf); err != nil {
			t.Fatal(err)
		}
		reread, err := ReadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// The re-read model answers for every pair as the trained one:
		// the same probabilities and counts, hence (below) the same rows.
		wantProb, wantEnc, wantCol := asMaps(copyOf)
		if prob, enc, col := asMaps(reread); !reflect.DeepEqual(prob, wantProb) || !reflect.DeepEqual(enc, wantEnc) || !reflect.DeepEqual(col, wantCol) {
			t.Fatalf("α=%v: the re-read model's pairs differ from the trained model's", alpha)
		}
		for _, u := range everyone {
			for _, v := range everyone {
				prob, ok := reread.Prob(u, v)
				enc, col := reread.Counts(u, v)
				p := MakePair(u, v)
				if _, want := wantProb[p]; prob != wantProb[p] || ok != want || enc != wantEnc[p] || col != wantCol[p] {
					t.Fatalf("α=%v: re-read (%s,%s) = P %v (%v), %d encounters, %d co-leaves; trained P %v (%v), %d, %d",
						alpha, u, v, prob, ok, enc, col, wantProb[p], want, wantEnc[p], wantCol[p])
				}
			}
		}
		for name, m := range map[string]*Model{"trained": copyOf, "reread": reread} {
			for _, threshold := range []float64{0.2, 0.3} {
				users, start, friends, theta := m.CloseFriendRows(threshold)
				if !slices.IsSorted(users) || len(start) != len(users)+1 || len(friends) != len(theta) {
					t.Fatalf("%s α=%v thr=%v: malformed rows (%d users, %d starts, %d friends, %d θ)",
						name, alpha, threshold, len(users), len(start), len(friends), len(theta))
				}
				priorOnly, outsiders := 0, 0
				for _, u := range everyone {
					var gotF []trace.UserID
					var gotT []float64
					r, ok := m.Rank(u)
					if wantR, wantOK := slices.BinarySearch(users, u); ok != wantOK || ok && r != wantR {
						t.Fatalf("%s α=%v thr=%v: Rank(%s) = %d, %v; users has it at %d, %v", name, alpha, threshold, u, r, ok, wantR, wantOK)
					}
					if ok {
						gotF, gotT = friends[start[r]:start[r+1]], theta[start[r]:start[r+1]]
					}
					wantF, wantT := scanRow(m, u, everyone, threshold)
					if !slices.Equal(gotF, wantF) {
						t.Fatalf("%s α=%v thr=%v: row of %s = %v, Index scan gives %v", name, alpha, threshold, u, gotF, wantF)
					}
					for i := range wantT {
						if math.Float64bits(gotT[i]) != math.Float64bits(wantT[i]) {
							t.Fatalf("%s α=%v thr=%v: θ(%s,%s) = %v in the row, Index gives %v",
								name, alpha, threshold, u, wantF[i], gotT[i], wantT[i])
						}
						if _, supported := m.Prob(u, wantF[i]); !supported {
							priorOnly++
						}
					}
					if !inWindow[u] {
						outsiders += len(wantF)
					}
				}
				// A row of a user outside everyone would go unchecked.
				for _, u := range users {
					if _, ok := slices.BinarySearch(everyone, u); !ok {
						t.Fatalf("%s α=%v thr=%v: rows list %s, who has no session in the window and no type", name, alpha, threshold, u)
					}
				}
				crossing := alpha*0.9 > threshold
				if crossing != (priorOnly > 0) || crossing != (outsiders > 0) {
					t.Errorf("%s α=%v thr=%v: %d prior-only relations, %d held by users outside the window; a prior crossing alone: %v",
						name, alpha, threshold, priorOnly, outsiders, crossing)
				}
			}
		}
	}
}

// TestCountingSortMatchesSlicesSort: sortEvents orders pair events as
// slices.Sort does — on the 150-user campus's event list and on ranks at
// the edges of the key space.
func TestCountingSortMatchesSlicesSort(t *testing.T) {
	check := func(name string, d *dense, events []uint64) {
		t.Helper()
		want := slices.Clone(events)
		slices.Sort(want)
		d.sortEvents(events, len(d.users))
		if !slices.Equal(events, want) {
			t.Errorf("%s: %d events not in slices.Sort order", name, len(events))
		}
	}

	tr, _ := smallCampus(t)
	d := new(dense).intern(tr.Sessions, math.MinInt64, nil)
	events := d.encounters(nil, math.MinInt64, 600)
	d.eachCoLeave(math.MinInt64, 300, func(ap, first, second int) {
		g := d.byLeave[ap]
		events = append(events, pairEvent(g[first].rank, g[second].rank, eventCoLeave))
	})
	if len(events) < 10000 || slices.IsSorted(events) {
		t.Fatalf("campus yields %d events (sorted: %v): nothing to sort", len(events), slices.IsSorted(events))
	}
	check("campus", d, events)

	for _, n := range []uint32{2, 3, 600} {
		d := &dense{users: make([]trace.UserID, n)}
		var edge []uint64
		for _, p := range [][2]uint32{{0, 1}, {0, n - 1}, {1, n - 1}, {n - 2, n - 1}, {n - 1, 0}} {
			if p[0] != p[1] {
				for _, kind := range []uint64{eventCoLeave, eventEncounter, eventCoLeave} {
					edge = append(edge, pairEvent(p[0], p[1], kind))
				}
			}
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(len(edge), func(i, j int) { edge[i], edge[j] = edge[j], edge[i] })
		check("edge ranks", d, edge)
	}
	check("empty", &dense{}, nil)
}
