package s3wlan_test

import (
	"path/filepath"
	"reflect"
	"testing"

	s3wlan "github.com/s3wlan/s3wlan"
	"github.com/s3wlan/s3wlan/internal/analysis"
	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// integrationCampus is shared by the integration tests.
func integrationCampus() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Users = 150
	cfg.Buildings = 3
	cfg.APsPerBuilding = 3
	cfg.Days = 12
	return cfg
}

// TestFullPipelineThroughDisk exercises generate → save → load → analyze →
// train → persist model → reload → simulate, all through serialized
// artifacts, as a deployment would.
func TestFullPipelineThroughDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := integrationCampus()

	// Generate and persist the trace.
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "campus.jsonl")
	if err := trace.SaveFile(tracePath, tr); err != nil {
		t.Fatal(err)
	}

	// Reload and verify identity.
	loaded, err := trace.LoadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, loaded) {
		t.Fatal("trace round trip mismatch")
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}

	// Measurement analyses run on the loaded trace.
	if _, err := analysis.Fig2(loaded, cfg.Epoch); err != nil {
		t.Fatalf("fig2: %v", err)
	}
	ps := apps.BuildProfiles(loaded.Flows, cfg.Epoch, apps.NewClassifier())
	fig8, err := analysis.Fig8(ps, 4, 1)
	if err != nil {
		t.Fatalf("fig8: %v", err)
	}
	if _, err := analysis.Table1(loaded, fig8, 300, 600); err != nil {
		t.Fatalf("table1: %v", err)
	}

	// Train, persist and reload the sociality model.
	cut := cfg.Epoch + 9*86400
	train, test := loaded.SplitAt(cut)
	trainPS := apps.BuildProfiles(train.Flows, cfg.Epoch, apps.NewClassifier())
	model, err := society.Train(train, trainPS, society.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.json")
	if err := society.SaveModel(modelPath, model); err != nil {
		t.Fatal(err)
	}
	reloaded, err := society.LoadModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate with the reloaded model; result must match the original.
	runWith := func(m *society.Model) *wlan.Result {
		sel, err := core.NewSelector(m, core.DefaultSelectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := wlan.Simulate(test, wlan.Config{
			SelectorFor: func(trace.ControllerID, []trace.AP) wlan.Selector {
				return sel
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resA := runWith(model)
	resB := runWith(reloaded)
	for _, c := range resA.Controllers() {
		a, b := resA.Domains[c], resB.Domains[c]
		if !reflect.DeepEqual(a.Assigned, b.Assigned) {
			t.Fatalf("domain %s: persisted model changes behaviour", c)
		}
	}
}

// simulate replays d's test split under one selector with the
// evaluation's protocol: demands from the training history, AP loads
// reported every 300 s, co-arrivals batched within 60 s.
func simulate(t *testing.T, d *experiments.Data, sel wlan.Selector) *wlan.Result {
	t.Helper()
	res, err := wlan.Simulate(d.Test, wlan.Config{
		SelectorFor:               func(trace.ControllerID, []trace.AP) wlan.Selector { return sel },
		DemandFor:                 func(s trace.Session) float64 { return d.Demands.Demand(s.User) },
		BatchWindowSeconds:        60,
		LoadReportIntervalSeconds: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimulationDeterminism verifies that the entire pipeline is
// reproducible: same seed, same assignments.
func TestSimulationDeterminism(t *testing.T) {
	run := func() *wlan.Result {
		d, err := experiments.Prepare(integrationCampus(), 9)
		if err != nil {
			t.Fatal(err)
		}
		model, err := society.Train(d.Train, d.Profiles, society.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sel, err := core.NewSelector(model, core.DefaultSelectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		return simulate(t, d, sel)
	}
	a, b := run(), run()
	for _, c := range a.Controllers() {
		if !reflect.DeepEqual(a.Domains[c].Assigned, b.Domains[c].Assigned) {
			t.Fatalf("domain %s: nondeterministic assignments", c)
		}
	}
}

// TestConservationEveryArrivalAssignedOnce checks the simulator invariant
// that every session in the test trace is placed exactly once.
func TestConservationEveryArrivalAssignedOnce(t *testing.T) {
	d, err := experiments.Prepare(integrationCampus(), 9)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, d, s3wlan.LLF{})
	placed := 0
	for _, c := range res.Controllers() {
		placed += len(res.Domains[c].Assigned)
	}
	if placed != len(d.Test.Sessions) {
		t.Errorf("placed %d sessions, trace has %d", placed, len(d.Test.Sessions))
	}
	// Served volume is conserved too.
	var want, got int64
	for _, s := range d.Test.Sessions {
		want += s.Bytes
	}
	for _, c := range res.Controllers() {
		for _, a := range res.Domains[c].Assigned {
			got += a.Session.Bytes
		}
	}
	if want != got {
		t.Errorf("served bytes = %d, want %d", got, want)
	}
}

// TestPublicFacadeMatchesInternals guards the alias surface: values built
// through the facade are the same types the internal packages produce.
func TestPublicFacadeMatchesInternals(t *testing.T) {
	cfg := s3wlan.DefaultCampusConfig()
	var internalCfg synth.Config = cfg // compile-time identity
	if internalCfg.Users != cfg.Users {
		t.Fatal("unreachable")
	}
	var sel s3wlan.Policy = s3wlan.LLF{}
	if sel.Name() != "LLF" {
		t.Errorf("facade LLF name = %q", sel.Name())
	}
}
