package society

import (
	"cmp"
	"math"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Pair is an unordered user pair in canonical (A < B) form.
type Pair struct {
	A, B trace.UserID
}

// MakePair canonicalizes the pair ordering.
func MakePair(u, v trace.UserID) Pair {
	if v < u {
		u, v = v, u
	}
	return Pair{A: u, B: v}
}

// compare orders pairs by (A, B).
func (p Pair) compare(q Pair) int { return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B)) }

// CoLeaveEvent is a pair of users leaving the same AP within the
// extraction window.
type CoLeaveEvent struct {
	Pair Pair
	AP   trace.APID
	At   int64 // time of the earlier leaving
}

// ExtractCoLeavings finds all pairs of users who left the same AP within
// windowSeconds of each other, ordered by (AP, time of the earlier
// leaving). Each pair of leave events yields at most one co-leave event;
// a user leaving the same AP twice inside the window (reconnect churn)
// pairs independently per leaving. Self-pairs are excluded.
func ExtractCoLeavings(sessions []trace.Session, windowSeconds int64) []CoLeaveEvent {
	d := densePool.Get().(*dense).intern(sessions, math.MinInt64, nil)
	defer densePool.Put(d)
	var out []CoLeaveEvent
	d.eachCoLeave(math.MinInt64, windowSeconds, func(ap, first, second int) {
		g := d.byLeave[ap]
		out = append(out, CoLeaveEvent{
			Pair: MakePair(d.users[g[first].rank], d.users[g[second].rank]),
			AP:   d.aps[ap],
			At:   g[first].disconnect,
		})
	})
	return out
}

// ExtractEncounters counts, per pair, how many times two users' sessions
// on the same AP overlapped for at least minOverlapSeconds — the paper's
// encountering event ("keep the connections with the same AP for a
// certain period of time").
func ExtractEncounters(sessions []trace.Session, minOverlapSeconds int64) map[Pair]int {
	d := densePool.Get().(*dense).intern(sessions, math.MinInt64, nil)
	defer densePool.Put(d)
	d.eventBuf = d.encounters(d.eventBuf[:0], math.MinInt64, minOverlapSeconds)
	events := d.eventBuf
	d.sortEvents(events, len(d.users))
	out := make(map[Pair]int)
	eachPair(events, func(a, b uint32, encounters, _ int) {
		out[Pair{d.users[a], d.users[b]}] = encounters
	})
	return out
}

// CoLeaveFractionPerUser returns, for each user, the fraction of their
// leaving events that participate in at least one co-leaving — the
// statistic behind the paper's Fig. 5. Users with no leavings are absent.
func CoLeaveFractionPerUser(sessions []trace.Session, windowSeconds int64) map[trace.UserID]float64 {
	d := densePool.Get().(*dense).intern(sessions, math.MinInt64, nil)
	defer densePool.Put(d)
	co := make([][]bool, len(d.byLeave)) // per AP, per leaving: part of a co-leaving
	for ap, g := range d.byLeave {
		co[ap] = make([]bool, len(g))
	}
	d.eachCoLeave(math.MinInt64, windowSeconds, func(ap, first, second int) {
		co[ap][first], co[ap][second] = true, true
	})
	totals, coCount := make([]int, len(d.users)), make([]int, len(d.users))
	for ap, g := range d.byLeave {
		for i, v := range g {
			totals[v.rank]++
			if co[ap][i] {
				coCount[v.rank]++
			}
		}
	}
	out := make(map[trace.UserID]float64, len(d.users))
	for r, u := range d.users {
		out[u] = float64(coCount[r]) / float64(totals[r])
	}
	return out
}
