package analysis

import (
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// testTrace generates one small campus shared by the analysis tests.
func testTrace(t *testing.T) (*trace.Trace, *apps.ProfileStore) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users = 200
	cfg.Buildings = 5
	cfg.APsPerBuilding = 3
	cfg.Days = 12
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := apps.BuildProfiles(tr.Flows, cfg.Epoch, apps.NewClassifier())
	return tr, ps
}

func TestFig2(t *testing.T) {
	tr, _ := testTrace(t)
	res, err := Fig2(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AverageCDF.Len() == 0 {
		t.Fatal("no average-hours samples")
	}
	if res.PeakCDF.Len() == 0 {
		t.Fatal("no peak-hours samples")
	}
	if res.UnbalancedAverage < 0 || res.UnbalancedAverage > 1 {
		t.Errorf("UnbalancedAverage = %v", res.UnbalancedAverage)
	}
	if !strings.Contains(res.Render(), "Fig 2") {
		t.Error("Render missing title")
	}
}

func TestFig2EmptyTrace(t *testing.T) {
	if _, err := Fig2(&trace.Trace{}, 0); err == nil {
		t.Error("empty trace should error")
	}
}

func TestFig3(t *testing.T) {
	tr, _ := testTrace(t)
	res, err := Fig3(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []int64{300, 600, 1200} {
		if res.CDFBySubPeriod[sp] == nil {
			t.Fatalf("missing sub-period %d", sp)
		}
	}
	// The paper's observation: with fixed users the balance barely moves.
	if res.CDFBySubPeriod[600].Len() > 0 && res.FracSmall10Min < 0.5 {
		t.Errorf("FracSmall10Min = %v, expected most variance to be small",
			res.FracSmall10Min)
	}
	if !strings.Contains(res.Render(), "Fig 3") {
		t.Error("Render missing title")
	}
}

func TestFig4(t *testing.T) {
	tr, _ := testTrace(t)
	res, err := Fig4(tr, 0, 1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 || len(res.Times) != len(res.UserBalance) ||
		len(res.Times) != len(res.LoadBalance) {
		t.Fatalf("series lengths: %d/%d/%d",
			len(res.Times), len(res.UserBalance), len(res.LoadBalance))
	}
	// The paper's argument: the two series track each other.
	if res.Correlation <= 0 {
		t.Errorf("correlation = %v, want positive", res.Correlation)
	}
	if !strings.Contains(res.Render(), "Fig 4") {
		t.Error("Render missing title")
	}
}

func TestFig4NoData(t *testing.T) {
	tr, _ := testTrace(t)
	if _, err := Fig4(tr, 0, 9999, 600); err == nil {
		t.Error("day without sessions should error")
	}
	if _, err := Fig4(&trace.Trace{}, 0, 0, 600); err == nil {
		t.Error("empty trace should error")
	}
}

func TestFig5(t *testing.T) {
	tr, _ := testTrace(t)
	res, err := Fig5(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.CDFByWindow[600]
	if c == nil || c.Len() == 0 {
		t.Fatal("no 10-minute-window samples")
	}
	// Strong sociality planted: median co-leave fraction should be
	// well above zero.
	if res.MedianFraction10Min <= 0.1 {
		t.Errorf("median co-leave fraction = %v, want > 0.1 (social trace)",
			res.MedianFraction10Min)
	}
	if !strings.Contains(res.Render(), "Fig 5") {
		t.Error("Render missing title")
	}
}

func TestFig6(t *testing.T) {
	_, ps := testTrace(t)
	res, err := Fig6(ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ages) != 8 {
		t.Fatalf("ages = %v", res.Ages)
	}
	// Cumulative history should be at least as informative as a single
	// old day once a few days accumulate.
	last := len(res.Ages) - 1
	if res.CumulativeNMI[last] < res.PointNMI[last]-0.05 {
		t.Errorf("cumulative NMI (%v) should dominate point NMI (%v)",
			res.CumulativeNMI[last], res.PointNMI[last])
	}
	if res.PlateauAge <= 0 {
		t.Errorf("PlateauAge = %d", res.PlateauAge)
	}
	if !strings.Contains(res.Render(), "Fig 6") {
		t.Error("Render missing title")
	}
}

func TestFig6Errors(t *testing.T) {
	if _, err := Fig6(nil, 5); err == nil {
		t.Error("nil profiles should error")
	}
	empty := apps.BuildProfiles(nil, 0, apps.NewClassifier())
	if _, err := Fig6(empty, 5); err == nil {
		t.Error("empty profiles should error")
	}
}

func TestFig7FindsFourTypes(t *testing.T) {
	_, ps := testTrace(t)
	res, err := Fig7(ps, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 8 {
		t.Fatalf("curve = %d points", len(res.Curve))
	}
	// Four archetypes planted; gap statistic should find ≈4.
	if res.OptimalK < 3 || res.OptimalK > 5 {
		t.Errorf("OptimalK = %d, want ≈4", res.OptimalK)
	}
	if !strings.Contains(res.Render(), "Fig 7") {
		t.Error("Render missing title")
	}
}

func TestFig8(t *testing.T) {
	_, ps := testTrace(t)
	res, err := Fig8(ps, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || len(res.Centroids) != 4 {
		t.Fatalf("K = %d", res.K)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(res.Labels) {
		t.Errorf("sizes sum %d != labels %d", total, len(res.Labels))
	}
	// Each centroid is a distribution over six realms.
	for g, c := range res.Centroids {
		if len(c) != apps.NumRealms {
			t.Fatalf("centroid %d has dim %d", g, len(c))
		}
		var sum float64
		for _, v := range c {
			sum += v
		}
		if sum < 0.9 || sum > 1.1 {
			t.Errorf("centroid %d sums to %v", g, sum)
		}
	}
	if !strings.Contains(res.Render(), "Fig 8") {
		t.Error("Render missing title")
	}
}

func TestTable1DiagonalDominant(t *testing.T) {
	tr, ps := testTrace(t)
	fig8, err := Fig8(ps, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Table1(tr, fig8, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d", res.K)
	}
	// The generator plants archetype-homogeneous groups, so same-type
	// pairs co-leave more: the diagonal should dominate.
	if !res.DiagonalDominant {
		t.Errorf("matrix not diagonal dominant: %v", res.Matrix)
	}
	if !strings.Contains(res.Render(), "Table I") {
		t.Error("Render missing title")
	}
}

func TestTable1Errors(t *testing.T) {
	tr, ps := testTrace(t)
	fig8, err := Fig8(ps, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table1(&trace.Trace{}, fig8, 300, 600); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := Table1(tr, nil, 300, 600); err == nil {
		t.Error("nil clustering should error")
	}
}

func TestProfilePointsErrors(t *testing.T) {
	if _, _, err := ProfilePoints(nil); err == nil {
		t.Error("nil store should error")
	}
}

func TestPlateauAge(t *testing.T) {
	ages := []int{1, 2, 3, 4}
	// Improvement stops after age 2.
	curve := []float64{0.4, 0.5, 0.501, 0.502}
	if got := stats.Plateau(ages, curve); got != 2 {
		t.Errorf("stats.Plateau = %d, want 2", got)
	}
	// Monotone improvement: last age.
	curve = []float64{0.1, 0.2, 0.4, 0.8}
	if got := stats.Plateau(ages, curve); got != 4 {
		t.Errorf("stats.Plateau = %d, want 4", got)
	}
	if got := stats.Plateau(nil, nil); got != 0 {
		t.Errorf("stats.Plateau empty = %d, want 0", got)
	}
}

func TestBuildSocialReport(t *testing.T) {
	tr, ps := testTrace(t)
	cut := int64(9 * 86400)
	train, _ := tr.SplitAt(cut)
	trainPS := ps // full-trace profiles are fine for the report test
	model, err := society.Train(train, trainPS, society.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildSocialReport(model, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph.Vertices == 0 || rep.Graph.Edges == 0 {
		t.Fatalf("empty social graph: %+v", rep.Graph)
	}
	// The planted group structure is cliquish: high clustering.
	if rep.Graph.ClusteringCoefficient < 0.3 {
		t.Errorf("clustering = %v, want cliquish", rep.Graph.ClusteringCoefficient)
	}
	if len(rep.TopPairs) == 0 {
		t.Error("no top pairs")
	}
	if !strings.Contains(rep.Render(), "Social graph") {
		t.Error("Render missing title")
	}
	if _, err := BuildSocialReport(nil, 0.3); err == nil {
		t.Error("nil model should error")
	}
}
