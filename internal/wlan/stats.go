package wlan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// RunStats summarizes a completed simulation: placement counts, churn
// intensity, and per-AP shares — the operational numbers an operator
// would read off a controller dashboard.
type RunStats struct {
	Policy string
	// Assignments is the total number of placed sessions.
	Assignments int
	// Overloads counts bandwidth-constraint violations (forced fallbacks).
	Overloads int
	// PerDomain maps each controller to its session count.
	PerDomain map[trace.ControllerID]int
	// PerAP maps each AP to the number of sessions it served.
	PerAP map[trace.APID]int
	// BusiestAP and its session count.
	BusiestAP      trace.APID
	BusiestAPCount int
	// PeakConcurrency is the maximum number of simultaneously open
	// sessions across the whole network.
	PeakConcurrency int
}

// Stats computes RunStats from the result.
func (r *Result) Stats() RunStats {
	st := RunStats{
		Policy:    r.Policy,
		PerDomain: make(map[trace.ControllerID]int, len(r.Domains)),
		PerAP:     make(map[trace.APID]int),
	}
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, c := range r.Controllers() {
		dom := r.Domains[c]
		st.Assignments += len(dom.Assigned)
		st.Overloads += dom.Overloads
		st.PerDomain[c] = len(dom.Assigned)
		for _, a := range dom.Assigned {
			st.PerAP[a.AP]++
			edges = append(edges,
				edge{at: a.Session.ConnectAt, delta: 1},
				edge{at: a.Session.DisconnectAt, delta: -1})
		}
	}
	for ap, n := range st.PerAP {
		if n > st.BusiestAPCount ||
			(n == st.BusiestAPCount && ap < st.BusiestAP) {
			st.BusiestAP, st.BusiestAPCount = ap, n
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta)) // departures first on ties
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		st.PeakConcurrency = max(st.PeakConcurrency, cur)
	}
	return st
}

// String renders the stats compactly.
func (s RunStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d assignments, %d overloads, peak concurrency %d\n",
		s.Policy, s.Assignments, s.Overloads, s.PeakConcurrency)
	fmt.Fprintf(&sb, "busiest AP: %s (%d sessions)\n", s.BusiestAP, s.BusiestAPCount)
	return sb.String()
}
