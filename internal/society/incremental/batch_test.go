package incremental

import (
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// trainWindow is the session set society.Train counts over: the trace's
// last cfg.HistoryDays days.
func trainWindow(tr *trace.Trace, cfg society.Config) []trace.Session {
	_, end := tr.TimeRange()
	cut := end - int64(cfg.HistoryDays)*86400
	var out []trace.Session
	for _, s := range tr.Sessions {
		if s.ConnectAt >= cut {
			out = append(out, s)
		}
	}
	return out
}

// unstacked drops every session that begins while an earlier session of
// the same user on the same AP is still open.
func unstacked(sessions []trace.Session) []trace.Session {
	sorted := append([]trace.Session(nil), sessions...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ConnectAt < sorted[j].ConnectAt })
	type key struct {
		u  trace.UserID
		ap trace.APID
	}
	busyUntil := make(map[key]int64)
	var out []trace.Session
	for _, s := range sorted {
		k := key{s.User, s.AP}
		if until, ok := busyUntil[k]; ok && s.ConnectAt < until {
			continue
		}
		busyUntil[k] = s.DisconnectAt
		out = append(out, s)
	}
	return out
}

// liveTallies feeds sessions through a fresh engine as events in time
// order, departures first at equal times, and returns its raw tallies.
func liveTallies(t *testing.T, cfg society.Config, sessions []trace.Session) *society.Model {
	t.Helper()
	e := New(Config{Society: cfg})
	for _, ev := range campusEvents(sessions) {
		if !ev.leave {
			e.Connect(ev.sess.User, ev.sess.AP, ev.ts())
		} else if err := e.Disconnect(ev.sess.User, ev.sess.AP, ev.ts()); err != nil {
			t.Fatalf("%+v: %v", ev.sess, err)
		}
	}
	return e.Model()
}

// TestLiveTalliesAgainstBatch pins how the two θ learners relate, which
// is why there are two. society.Train counts an encounter per
// overlapping session pair, the engine per presence; co-leavings they
// count alike. So on Train's own window the co-leave tallies are equal,
// the encounter tallies are equal once stacked same-user/same-AP
// sessions are dropped, and with them the engine's are never higher —
// on the default campus a tenth of the pairs differ, which is what
// keeps Train (and every paper-facing number pinned to it) from being
// replaced by a replay through the engine.
func TestLiveTalliesAgainstBatch(t *testing.T) {
	campus := synth.DefaultConfig()
	campus.Users, campus.Buildings, campus.APsPerBuilding, campus.Days = 150, 4, 3, 12
	tr, _, err := synth.Generate(campus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := society.DefaultConfig()
	cfg.HistoryDays = 9
	full := trainWindow(tr, cfg)
	flat := unstacked(full)
	if len(flat) == len(full) {
		t.Fatal("test vacuous: the campus has no stacked sessions")
	}

	coLeaves := func(sessions []trace.Session) map[society.Pair]int {
		out := make(map[society.Pair]int)
		for _, ev := range society.ExtractCoLeavings(sessions, cfg.CoLeaveWindowSeconds) {
			out[ev.Pair]++
		}
		return out
	}
	equal := func(tag string, live, batch map[society.Pair]int) {
		t.Helper()
		if len(live) != len(batch) {
			t.Errorf("%s: live has %d pairs, batch %d", tag, len(live), len(batch))
		}
		for p, n := range batch {
			if live[p] != n {
				t.Fatalf("%s: %v live %d, batch %d", tag, p, live[p], n)
			}
		}
	}

	_, liveEnc, liveCol := asMaps(liveTallies(t, cfg, full))
	equal("co-leaves, full window", liveCol, coLeaves(full))
	batchEnc := society.ExtractEncounters(full, cfg.MinEncounterSeconds)
	lower := 0
	for p, n := range liveEnc {
		if n > batchEnc[p] {
			t.Fatalf("encounters, full window: %v live %d > batch %d", p, n, batchEnc[p])
		}
	}
	for p, n := range batchEnc {
		if liveEnc[p] < n {
			lower++
		}
	}
	if lower == 0 {
		t.Error("stacked sessions moved no encounter tally: the two definitions were not told apart")
	}

	_, liveEnc, liveCol = asMaps(liveTallies(t, cfg, flat))
	equal("co-leaves, unstacked", liveCol, coLeaves(flat))
	equal("encounters, unstacked", liveEnc, society.ExtractEncounters(flat, cfg.MinEncounterSeconds))
	t.Logf("%d sessions, %d stacked; %d of %d pairs have fewer live encounters",
		len(full), len(full)-len(flat), lower, len(batchEnc))
}
