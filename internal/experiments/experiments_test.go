package experiments

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/stats"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// smallCampus is a reduced configuration so the experiment tests stay
// fast while preserving the group-churn structure.
func smallCampus() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Users = 150
	cfg.Buildings = 4
	cfg.APsPerBuilding = 3
	cfg.Days = 12
	return cfg
}

func prepareSmall(t *testing.T) *Data {
	t.Helper()
	d, err := Prepare(smallCampus(), 9)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPrepare(t *testing.T) {
	d := prepareSmall(t)
	if len(d.Train.Sessions) == 0 || len(d.Test.Sessions) == 0 {
		t.Fatal("empty splits")
	}
	cut := d.Campus.Epoch + int64(d.TrainDays)*86400
	for _, s := range d.Train.Sessions {
		if s.ConnectAt >= cut {
			t.Fatal("test session leaked into training split")
		}
	}
	for _, s := range d.Test.Sessions {
		if s.ConnectAt < cut {
			t.Fatal("training session leaked into test split")
		}
	}
	if d.Profiles == nil || d.Demands == nil {
		t.Fatal("missing training artifacts")
	}
}

func TestPrepareErrors(t *testing.T) {
	cfg := smallCampus()
	if _, err := Prepare(cfg, cfg.Days); err == nil {
		t.Error("trainDays >= days should error")
	}
	bad := cfg
	bad.Users = 0
	if _, err := Prepare(bad, 5); err == nil {
		t.Error("invalid campus should error")
	}
}

func TestS3BeatsLLF(t *testing.T) {
	d := prepareSmall(t)
	s3Res, err := d.RunS3(society.DefaultConfig(), core.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	llfRes, err := d.RunLLF()
	if err != nil {
		t.Fatal(err)
	}
	mS3, err := MeanBalance(s3Res)
	if err != nil {
		t.Fatal(err)
	}
	mLLF, err := MeanBalance(llfRes)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean balance: S3 = %.4f, LLF = %.4f (gain %.1f%%)",
		mS3, mLLF, (mS3-mLLF)/mLLF*100)
	if mS3 <= mLLF {
		t.Errorf("S3 (%.4f) should beat LLF (%.4f)", mS3, mLLF)
	}
}

// TestMeanBalanceConcurrent: MeanBalance is the mean of every domain's
// LoadSeries ActiveValues, bit for bit, and eight goroutines scoring one
// Result at once each get that value (run it under -race: each call bins
// through its own buffer).
func TestMeanBalanceConcurrent(t *testing.T) {
	d := prepareSmall(t)
	res, err := d.RunLLF()
	if err != nil {
		t.Fatal(err)
	}
	var w stats.Welford
	for _, c := range res.Controllers() {
		series, err := res.LoadSeries(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range series.ActiveValues() {
			w.Add(v)
		}
	}
	serial, err := MeanBalance(res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(serial) != math.Float64bits(w.Mean()) {
		t.Fatalf("MeanBalance = %v, the series' active values average %v", serial, w.Mean())
	}
	got := make([]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = MeanBalance(res)
		}()
	}
	wg.Wait()
	for g, v := range got {
		if math.Float64bits(v) != math.Float64bits(serial) {
			t.Errorf("goroutine %d: MeanBalance = %v, serial %v", g, v, serial)
		}
	}
}

func TestRunSelector(t *testing.T) {
	d := prepareSmall(t)
	res, err := d.RunSelector(func(trace.ControllerID, []trace.AP) wlan.Selector {
		return baseline.StrongestRSSI{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "StrongestRSSI" {
		t.Errorf("policy = %q", res.Policy)
	}
	if _, err := MeanBalance(res); err != nil {
		t.Fatal(err)
	}
}

// TestDomainBalances: scoreReplay's per-domain active values are
// LoadSeries' ActiveValues, bit for bit, and its series every bin's value.
func TestDomainBalances(t *testing.T) {
	d := prepareSmall(t)
	res, err := d.RunLLF()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scoreReplay(res, d.Campus.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.active) != 4 || len(sc.series.ByDomain) != 4 {
		t.Errorf("domains = %d active, %d in the series, want 4", len(sc.active), len(sc.series.ByDomain))
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range res.Controllers() {
		want, err := res.LoadSeries(c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(sc.active[c], want.ActiveValues(), bits) || !slices.EqualFunc(sc.series.ByDomain[c], want.Values, bits) {
			t.Errorf("domain %s: scored values differ from LoadSeries", c)
		}
		for _, v := range sc.active[c] {
			if v < 0 || v > 1 {
				t.Errorf("domain %s balance %v out of [0,1]", c, v)
			}
		}
	}
}

// TestBalancesByHourFilter: scoreReplay's leave-peak values are, in
// order, the active bins of every domain that start in a LeavePeakHours
// hour — some of the active bins, not all.
func TestBalancesByHourFilter(t *testing.T) {
	d := prepareSmall(t)
	res, err := d.RunLLF()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scoreReplay(res, d.Campus.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	active := 0
	for _, c := range res.Controllers() {
		series, err := res.LoadSeries(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range series.Values {
			if series.Idle[i] {
				continue
			}
			active++
			if LeavePeakHours[trace.HourOfDay(d.Campus.Epoch, series.BinTime(i))] {
				want = append(want, v)
			}
		}
	}
	if !slices.Equal(sc.peak, want) {
		t.Errorf("leave-peak values: %d, want %d", len(sc.peak), len(want))
	}
	if len(want) == 0 || len(want) == active {
		t.Errorf("%d of %d active bins in leave-peak hours: the filter is not exercised", len(want), active)
	}
}

func TestFig10(t *testing.T) {
	d := prepareSmall(t)
	res, err := Fig10(d, []int64{60, 300, 900}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mean) != 1 || len(res.Mean[0]) != 3 {
		t.Fatalf("mean shape wrong: %v", res.Mean)
	}
	if res.BestInterval == 0 {
		t.Error("BestInterval unset")
	}
	for _, v := range res.Mean[0] {
		if v <= 0 || v > 1 {
			t.Errorf("balance %v out of range", v)
		}
	}
	if !strings.Contains(res.Render(), "Fig 10") {
		t.Error("Render missing title")
	}
}

func TestFig11(t *testing.T) {
	d := prepareSmall(t)
	res, err := Fig11(d, []int{1, 5, 9}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mean) != 1 || len(res.Mean[0]) != 3 {
		t.Fatalf("mean shape wrong: %v", res.Mean)
	}
	// More history should help (or at least not hurt badly).
	if res.Mean[0][2] < res.Mean[0][0]-0.05 {
		t.Errorf("more history should not hurt: %v", res.Mean[0])
	}
	if res.PlateauDays <= 0 {
		t.Error("PlateauDays unset")
	}
	if !strings.Contains(res.Render(), "Fig 11") {
		t.Error("Render missing title")
	}
}

func TestFig12(t *testing.T) {
	d := prepareSmall(t)
	res, err := Fig12(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Domains) == 0 {
		t.Fatal("no domain comparisons")
	}
	// The headline result: S³ beats LLF overall.
	if res.GainPercent <= 0 {
		t.Errorf("gain = %.1f%%, want positive", res.GainPercent)
	}
	// The across-site error-bar statistic is scale-sensitive on synthetic
	// campuses (domain composition drives both policies equally), so it is
	// reported rather than asserted; see EXPERIMENTS.md.
	t.Logf("error-bar reduction = %.1f%%", res.ErrorBarReductionPercent)
	if !strings.Contains(res.Render(), "Fig 12") {
		t.Error("Render missing title")
	}
	t.Logf("gain %.1f%%, leave-peak gain %.1f%%, error-bar reduction %.1f%%",
		res.GainPercent, res.LeavePeakGainPercent, res.ErrorBarReductionPercent)
}

// TestTrainOutsidePrepare: a Data built by hand has no Trainer and trains
// what society.Train trains; a copy with Train or Profiles replaced trains
// on the replacement, not on what Prepare interned.
func TestTrainOutsidePrepare(t *testing.T) {
	d := prepareSmall(t)
	cfg := society.DefaultConfig()
	write := func(m *society.Model, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := society.WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := write(society.Train(d.Train, d.Profiles, cfg))
	if write(d.trainModel(cfg)) != want {
		t.Error("Prepare's Data trains a model unlike society.Train's")
	}
	byHand := &Data{Campus: d.Campus, Full: d.Full, Train: d.Train, Test: d.Test,
		Profiles: d.Profiles, Demands: d.Demands, TrainDays: d.TrainDays}
	if write(byHand.trainModel(cfg)) != want {
		t.Error("a Data built by hand trains a model unlike society.Train's")
	}
	if _, err := byHand.RunS3(cfg, core.DefaultSelectorConfig()); err != nil {
		t.Errorf("RunS3 on a Data built by hand: %v", err)
	}

	half := *d
	half.Train = &trace.Trace{Sessions: d.Train.Sessions[len(d.Train.Sessions)/2:]}
	if got := write(half.trainModel(cfg)); got == want || got != write(society.Train(half.Train, d.Profiles, cfg)) {
		t.Error("a copy with half the training sessions does not train on them alone")
	}
	noProfiles := *d
	noProfiles.Profiles = nil
	if _, err := noProfiles.trainModel(cfg); !errors.Is(err, society.ErrNoProfiles) {
		t.Errorf("a copy without profiles trains: err = %v, want %v", err, society.ErrNoProfiles)
	}
}

// TestSweepTrainsOncePerTallies: α weighs the type prior when θ is read
// and changes nothing Train counts, so a sweep trains once per interval
// (Fig 10) or history length (Fig 11) however many α it crosses them
// with — and every cell still equals a training of its own.
func TestSweepTrainsOncePerTallies(t *testing.T) {
	d := prepareSmall(t)
	trainings := obs.GetHistogram("society.train")
	intervals, history, alphas := []int64{60, 300}, []int{3, 9}, []float64{0.1, 0.5}

	before := trainings.Count()
	f10, err := Fig10(d, intervals, alphas)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainings.Count() - before; got != int64(len(intervals)) {
		t.Errorf("Fig 10 trained %d models for %d intervals × %d α", got, len(intervals), len(alphas))
	}
	before = trainings.Count()
	f11, err := Fig11(d, history, alphas)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainings.Count() - before; got != int64(len(history)) {
		t.Errorf("Fig 11 trained %d models for %d history lengths × %d α", got, len(history), len(alphas))
	}

	alone := func(cfg society.Config) float64 {
		t.Helper()
		sim, err := d.RunS3(cfg, core.DefaultSelectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		mean, err := MeanBalance(sim)
		if err != nil {
			t.Fatal(err)
		}
		return mean
	}
	for a, alpha := range alphas {
		for i, iv := range intervals {
			cfg := society.DefaultConfig()
			cfg.CoLeaveWindowSeconds, cfg.Alpha, cfg.HistoryDays = iv, alpha, 0
			if want := alone(cfg); f10.Mean[a][i] != want {
				t.Errorf("Fig 10 α=%v interval=%d: %v, stand-alone RunS3 %v", alpha, iv, f10.Mean[a][i], want)
			}
		}
		for i, hd := range history {
			cfg := society.DefaultConfig()
			cfg.Alpha, cfg.HistoryDays = alpha, hd
			if want := alone(cfg); f11.Mean[a][i] != want {
				t.Errorf("Fig 11 α=%v history=%d: %v, stand-alone RunS3 %v", alpha, hd, f11.Mean[a][i], want)
			}
		}
	}
}
