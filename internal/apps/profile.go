package apps

import (
	"slices"

	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// ProfileStore holds per-user, per-day application-profile vectors
// T_x(u) = (a¹_u … a⁶_u): the volume of traffic in each realm generated by
// user u on day x. Days are indexed from the trace epoch.
type ProfileStore struct {
	epoch   int64
	byUser  map[trace.UserID]map[int][NumRealms]float64
	unknown float64 // total volume the classifier could not attribute
}

// NewProfileStore returns an empty store whose day zero starts at epoch.
func NewProfileStore(epoch int64) *ProfileStore {
	return &ProfileStore{epoch: epoch, byUser: make(map[trace.UserID]map[int][NumRealms]float64)}
}

// BuildProfiles classifies every flow and accumulates per-user daily
// profiles. Flows are attributed to the day containing their start time.
func BuildProfiles(flows []trace.Flow, epoch int64, c *Classifier) *ProfileStore {
	ps := NewProfileStore(epoch)
	for _, f := range flows {
		ps.Add(f.User, f.Start, c.Classify(f), f.Bytes)
	}
	return ps
}

// Add adds bytes of realm r to user u's profile of start's day; a realm
// outside the modeled six counts as unknown volume. Integer volumes sum
// exactly below 2⁵³, so the store does not depend on the order of adds.
func (ps *ProfileStore) Add(u trace.UserID, start int64, r Realm, bytes int64) {
	idx := r.Index()
	if idx < 0 {
		ps.unknown += float64(bytes)
		return
	}
	days := ps.byUser[u]
	if days == nil {
		days = make(map[int][NumRealms]float64)
		ps.byUser[u] = days
	}
	day := trace.DayIndex(ps.epoch, start)
	vec := days[day]
	vec[idx] += float64(bytes)
	days[day] = vec
}

// Epoch returns the store's day-zero reference timestamp.
func (ps *ProfileStore) Epoch() int64 { return ps.epoch }

// UnknownVolume returns the total volume left unclassified.
func (ps *ProfileStore) UnknownVolume() float64 { return ps.unknown }

// Users returns all users with at least one profile, sorted.
func (ps *ProfileStore) Users() []trace.UserID {
	out := make([]trace.UserID, 0, len(ps.byUser))
	for u := range ps.byUser {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Days returns the days (sorted) on which user u generated traffic.
func (ps *ProfileStore) Days(u trace.UserID) []int {
	days := ps.byUser[u]
	out := make([]int, 0, len(days))
	for d := range days {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// Day returns user u's raw volume vector for one day and whether any
// traffic was recorded that day.
func (ps *ProfileStore) Day(u trace.UserID, day int) ([]float64, bool) {
	days := ps.byUser[u]
	vec, ok := days[day]
	if !ok {
		return nil, false
	}
	out := make([]float64, NumRealms)
	copy(out, vec[:])
	return out, true
}

// Cumulative returns Σ_{d=from}^{to} T_d(u): the summed raw volume vector
// over the inclusive day range, and whether any day contributed.
func (ps *ProfileStore) Cumulative(u trace.UserID, from, to int) ([]float64, bool) {
	days := ps.byUser[u]
	out := make([]float64, NumRealms)
	any := false
	for d := from; d <= to; d++ {
		if vec, ok := days[d]; ok {
			any = true
			for i := range vec {
				out[i] += vec[i]
			}
		}
	}
	if !any {
		return nil, false
	}
	return out, true
}

// MeanNormalized returns the user's normalized mean application profile —
// the feature vector the paper clusters with k-means. It averages the
// user's daily normalized vectors so heavy days don't dominate, then
// renormalizes. Returns false for users with no traffic.
func (ps *ProfileStore) MeanNormalized(u trace.UserID) ([]float64, bool) {
	days := ps.byUser[u]
	if len(days) == 0 {
		return nil, false
	}
	acc := make([]float64, NumRealms)
	n := 0
	// Day order, not map order: float addition does not commute in the
	// last bits, and these vectors are k-means' input.
	for _, d := range ps.Days(u) {
		vec := days[d]
		// stats.Normalize's arithmetic, accumulated without the vector.
		if total := stats.Sum(vec[:]); total > 0 {
			n++
			for i, x := range vec {
				acc[i] += x / total
			}
		}
	}
	if n == 0 {
		return nil, false
	}
	for i := range acc {
		acc[i] /= float64(n)
	}
	return stats.Normalize(acc), true
}

// NMIPoint computes the paper's Fig. 6 "point" statistic for one user:
// NMI(T_x(u), T_{x−n}(u)) — mutual information between the day-x profile
// and the single-day profile n days earlier, normalized by H(T_x).
// Returns false when either day has no traffic.
func (ps *ProfileStore) NMIPoint(u trace.UserID, x, n int) (float64, bool) {
	cur, ok := ps.Day(u, x)
	if !ok {
		return 0, false
	}
	old, ok := ps.Day(u, x-n)
	if !ok {
		return 0, false
	}
	v, err := stats.NMI(cur, old)
	if err != nil {
		return 0, false
	}
	return v, true
}

// NMICumulative computes the Fig. 6 "cumulative" statistic:
// NMI(T_x(u), Σ_{i=1..n} T_{x−i}(u)) — the current day against the
// aggregate of the previous n days. Returns false when either side has no
// traffic.
func (ps *ProfileStore) NMICumulative(u trace.UserID, x, n int) (float64, bool) {
	cur, ok := ps.Day(u, x)
	if !ok {
		return 0, false
	}
	hist, ok := ps.Cumulative(u, x-n, x-1)
	if !ok {
		return 0, false
	}
	v, err := stats.NMI(cur, hist)
	if err != nil {
		return 0, false
	}
	return v, true
}
