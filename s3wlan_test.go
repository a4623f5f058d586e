package s3wlan_test

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	s3wlan "github.com/s3wlan/s3wlan"
)

// TestEndToEndPipeline exercises the whole public API: generate → split →
// train → select → simulate → measure.
func TestEndToEndPipeline(t *testing.T) {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 120
	cfg.Buildings = 3
	cfg.APsPerBuilding = 3
	cfg.Days = 10

	tr, truth, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Groups) == 0 {
		t.Fatal("no planted groups")
	}

	cut := cfg.Epoch + 8*86400
	train, test := tr.SplitAt(cut)

	model, err := s3wlan.TrainModel(train, cfg.Epoch, s3wlan.DefaultSocietyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model.K() == 0 {
		t.Error("model has no types")
	}

	selector, err := s3wlan.NewSelector(model, s3wlan.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s3wlan.Simulate(test, s3wlan.SimConfig{
		SelectorFor: func(s3wlan.ControllerID, []s3wlan.AP) s3wlan.Policy {
			return selector
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "S3" {
		t.Errorf("policy = %q", res.Policy)
	}
	for _, c := range res.Controllers() {
		series, err := res.LoadSeries(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range series.Values {
			if v < 0 || v > 1 {
				t.Fatalf("balance %v out of range", v)
			}
		}
	}
}

func TestTraceRoundTripViaFacade(t *testing.T) {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 30
	cfg.Buildings = 2
	cfg.APsPerBuilding = 2
	cfg.Days = 3
	tr, _, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := s3wlan.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := s3wlan.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sessions) != len(tr.Sessions) {
		t.Errorf("sessions = %d, want %d", len(got.Sessions), len(tr.Sessions))
	}
}

// TestLoadTraceRefusesInvalid: LoadTrace returns only a valid trace; a
// session that ends before it starts is refused, named.
func TestLoadTraceRefusesInvalid(t *testing.T) {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users, cfg.Buildings, cfg.APsPerBuilding, cfg.Days = 30, 2, 2, 3
	tr, _, err := s3wlan.GenerateCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &tr.Sessions[0]
	s.DisconnectAt = s.ConnectAt - 3600
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := s3wlan.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	names := fmt.Sprintf("session 0: trace: session for %s ends", s.User)
	if _, err := s3wlan.LoadTrace(path); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("LoadTrace: err = %v, want one naming %q", err, names)
	}
}

func TestBalanceIndexFacade(t *testing.T) {
	b, err := s3wlan.BalanceIndex([]float64{5, 5})
	if err != nil || math.Abs(b-1) > 1e-12 {
		t.Errorf("BalanceIndex = %v, %v", b, err)
	}
	n, err := s3wlan.NormalizedBalanceIndex([]float64{5, 0})
	if err != nil || math.Abs(n) > 1e-12 {
		t.Errorf("NormalizedBalanceIndex = %v, %v", n, err)
	}
}

func TestPrepareExperimentFacade(t *testing.T) {
	cfg := s3wlan.DefaultCampusConfig()
	cfg.Users = 60
	cfg.Buildings = 2
	cfg.APsPerBuilding = 2
	cfg.Days = 8
	d, err := s3wlan.PrepareExperiment(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train.Sessions) == 0 || len(d.Test.Sessions) == 0 {
		t.Error("empty experiment splits")
	}
}
