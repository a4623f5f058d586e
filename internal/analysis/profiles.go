package analysis

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/cluster"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Fig6Result is the temporal-correlation analysis of application profiles:
// mean NMI between the day-x profile and history at age n, for point
// (single-day) and cumulative (aggregated-history) variants.
type Fig6Result struct {
	// Ages lists the history ages n evaluated (days).
	Ages []int
	// PointNMI[i] is the mean NMI(T_x, T_{x−Ages[i]}) over users and days.
	PointNMI []float64
	// CumulativeNMI[i] is the mean NMI(T_x, Σ_{j=1..Ages[i]} T_{x−j}).
	CumulativeNMI []float64
	// PlateauAge is the first age whose cumulative NMI reaches 99% of the
	// curve's maximum; the paper finds ≈15 days.
	PlateauAge int
}

// Fig6 evaluates NMI for n = 1..maxAge using every user-day with data.
func Fig6(ps *apps.ProfileStore, maxAge int) (*Fig6Result, error) {
	if ps == nil || len(ps.Users()) == 0 {
		return nil, errors.New("analysis: no profiles")
	}
	if maxAge <= 0 {
		maxAge = 30
	}
	res := &Fig6Result{}
	users := ps.Users()
	for n := 1; n <= maxAge; n++ {
		var point, cum stats.Welford
		for _, u := range users {
			for _, x := range ps.Days(u) {
				if v, ok := ps.NMIPoint(u, x, n); ok {
					point.Add(v)
				}
				if v, ok := ps.NMICumulative(u, x, n); ok {
					cum.Add(v)
				}
			}
		}
		res.Ages = append(res.Ages, n)
		res.PointNMI = append(res.PointNMI, point.Mean())
		res.CumulativeNMI = append(res.CumulativeNMI, cum.Mean())
	}
	res.PlateauAge = stats.Plateau(res.Ages, res.CumulativeNMI)
	return res, nil
}

// Render formats the figure as text.
func (r *Fig6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 6: mean NMI vs history age n (point and cumulative)\n")
	fmt.Fprintf(&sb, "  cumulative NMI plateaus at n ≈ %d days\n", r.PlateauAge)
	fmt.Fprintf(&sb, "  %-5s %-10s %-10s\n", "n", "point", "cumulative")
	for i, n := range r.Ages {
		fmt.Fprintf(&sb, "  %-5d %-10.4f %-10.4f\n",
			n, r.PointNMI[i], r.CumulativeNMI[i])
	}
	return sb.String()
}

// ProfilePoints extracts the normalized mean application profiles used for
// clustering, with a stable user order.
func ProfilePoints(ps *apps.ProfileStore) ([]trace.UserID, [][]float64, error) {
	if ps == nil {
		return nil, nil, errors.New("analysis: nil profile store")
	}
	var ids []trace.UserID
	var points [][]float64
	for _, u := range ps.Users() {
		if vec, ok := ps.MeanNormalized(u); ok {
			ids = append(ids, u)
			points = append(points, vec)
		}
	}
	if len(points) == 0 {
		return nil, nil, errors.New("analysis: no usable profiles")
	}
	return ids, points, nil
}

// Fig7Result is the gap-statistic curve over user profiles.
type Fig7Result struct {
	Curve    []cluster.GapPoint
	OptimalK int
	// SilhouetteBestK cross-checks the gap statistic with silhouette
	// analysis over the same profiles (0 when too few points).
	SilhouetteBestK int
}

// Fig7 computes the gap statistic for k = 1..maxK (paper: 10) over the
// users' application profiles.
func Fig7(ps *apps.ProfileStore, maxK int, seed int64) (*Fig7Result, error) {
	_, points, err := ProfilePoints(ps)
	if err != nil {
		return nil, err
	}
	if maxK <= 0 {
		maxK = 10
	}
	rng := rand.New(rand.NewSource(seed))
	gap, err := cluster.GapStatistic(points, rng, cluster.GapConfig{
		MaxK:          maxK,
		ReferenceSets: 10,
		KMeans:        cluster.Config{Restarts: 6},
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Curve: gap.Points, OptimalK: gap.OptimalK}
	if len(points) > 2 {
		if _, bestK, err := cluster.SilhouetteCurve(points, maxK, rng,
			cluster.Config{Restarts: 4}); err == nil {
			res.SilhouetteBestK = bestK
		}
	}
	return res, nil
}

// Render formats the figure as text.
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 7: gap statistic for varying k\n")
	fmt.Fprintf(&sb, "  optimal k = %d (silhouette cross-check: k = %d)\n",
		r.OptimalK, r.SilhouetteBestK)
	fmt.Fprintf(&sb, "  %-4s %-10s %-10s\n", "k", "Gap(k)", "s_k")
	for _, p := range r.Curve {
		fmt.Fprintf(&sb, "  %-4d %-10.4f %-10.4f\n", p.K, p.Gap, p.SK)
	}
	return sb.String()
}

// Fig8Result holds the k-means centroids of the user groups over the six
// application realms.
type Fig8Result struct {
	K         int
	Centroids [][]float64 // K × NumRealms
	Sizes     []int
	// Labels maps each clustered user to their group.
	Labels map[trace.UserID]int
}

// Fig8 clusters the profiles into k groups (paper: 4).
func Fig8(ps *apps.ProfileStore, k int, seed int64) (*Fig8Result, error) {
	ids, points, err := ProfilePoints(ps)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 4
	}
	k = min(k, len(points))
	rng := rand.New(rand.NewSource(seed))
	res, err := cluster.KMeans(points, k, rng, cluster.Config{Restarts: 8})
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{
		K:         k,
		Centroids: res.Centroids,
		Sizes:     make([]int, k),
		Labels:    make(map[trace.UserID]int, len(ids)),
	}
	for i, lbl := range res.Labels {
		out.Sizes[lbl]++
		out.Labels[ids[i]] = lbl
	}
	return out, nil
}

// Render formats the figure as text.
func (r *Fig8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 8: cluster centroids of user groups (normalized traffic shares)\n")
	fmt.Fprintf(&sb, "  %-8s %-6s", "group", "size")
	for _, realm := range apps.Realms() {
		fmt.Fprintf(&sb, " %-8s", realm)
	}
	sb.WriteString("\n")
	for g := 0; g < r.K; g++ {
		fmt.Fprintf(&sb, "  type%-4d %-6d", g+1, r.Sizes[g])
		for _, v := range r.Centroids[g] {
			fmt.Fprintf(&sb, " %-8.3f", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table1Result is the co-leave probability matrix between usage types.
type Table1Result struct {
	K      int
	Matrix [][]float64
	// DiagonalDominant reports whether every diagonal entry exceeds every
	// off-diagonal entry in its row — the paper's key observation.
	DiagonalDominant bool
}

// Table1 estimates T(type_i, type_j) from the trace's encounters and
// co-leavings using the Fig. 8 clustering.
func Table1(tr *trace.Trace, fig8 *Fig8Result, coLeaveWindow, minEncounter int64) (*Table1Result, error) {
	if len(tr.Sessions) == 0 {
		return nil, ErrEmptyTrace
	}
	if fig8 == nil {
		return nil, errors.New("analysis: nil clustering")
	}
	if coLeaveWindow <= 0 {
		coLeaveWindow = 300
	}
	if minEncounter <= 0 {
		minEncounter = 600
	}
	encounters := society.ExtractEncounters(tr.Sessions, minEncounter)
	coLeaves := make(map[society.Pair]int)
	for _, ev := range society.ExtractCoLeavings(tr.Sessions, coLeaveWindow) {
		coLeaves[ev.Pair]++
	}
	matrix := society.BuildTypeMatrix(encounters, coLeaves, fig8.Labels, fig8.K)
	res := &Table1Result{K: fig8.K, Matrix: matrix, DiagonalDominant: true}
	for i := 0; i < fig8.K; i++ {
		for j := 0; j < fig8.K; j++ {
			if i != j && matrix[i][i] <= matrix[i][j] {
				res.DiagonalDominant = false
			}
		}
	}
	return res, nil
}

// Render formats the table as text.
func (r *Table1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table I: co-leaving probability between usage types\n")
	fmt.Fprintf(&sb, "  diagonal dominant: %v\n  %-8s", r.DiagonalDominant, "T")
	for j := 0; j < r.K; j++ {
		fmt.Fprintf(&sb, " type%-4d", j+1)
	}
	sb.WriteString("\n")
	for i := 0; i < r.K; i++ {
		fmt.Fprintf(&sb, "  type%-4d", i+1)
		for j := 0; j < r.K; j++ {
			fmt.Fprintf(&sb, " %-8.3f", r.Matrix[i][j])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
