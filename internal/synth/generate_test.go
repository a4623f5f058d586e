package synth

import (
	"reflect"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// tinyConfig is a fast configuration for tests.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Users = 60
	cfg.Buildings = 3
	cfg.APsPerBuilding = 3
	cfg.Days = 7
	return cfg
}

func TestGenerateBasics(t *testing.T) {
	tr, truth, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(tr.Topology.APs) != 9 {
		t.Errorf("APs = %d, want 9", len(tr.Topology.APs))
	}
	if len(tr.Topology.Controllers()) != 3 {
		t.Errorf("controllers = %d, want 3", len(tr.Topology.Controllers()))
	}
	if len(tr.Sessions) == 0 || len(tr.Flows) == 0 {
		t.Fatalf("sessions = %d, flows = %d; want non-empty",
			len(tr.Sessions), len(tr.Flows))
	}
	if len(truth.Groups) == 0 {
		t.Error("no groups planted")
	}
	// Every user has an archetype.
	for u, a := range truth.UserArchetype {
		if a < ArchetypeMessenger || a > ArchetypeWorker {
			t.Errorf("user %s has invalid archetype %v", u, a)
		}
	}
	// Sessions are time-sorted.
	for i := 1; i < len(tr.Sessions); i++ {
		if tr.Sessions[i].ConnectAt < tr.Sessions[i-1].ConnectAt {
			t.Fatal("sessions not sorted")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := tinyConfig()
	tr1, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr1.Sessions, tr2.Sessions) {
		t.Error("same seed should give identical sessions")
	}
	if !reflect.DeepEqual(tr1.Flows, tr2.Flows) {
		t.Error("same seed should give identical flows")
	}
	cfg.Seed = 2
	tr3, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(tr1.Sessions, tr3.Sessions) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := tinyConfig()
	bad.Users = 0
	if _, _, err := Generate(bad); err == nil {
		t.Error("invalid config should error")
	}
}

func TestConfigValidateCases(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		// field, when set, must be named by the error.
		field string
	}{
		{"days", func(c *Config) { c.Days = 0 }, "Days"},
		{"buildings", func(c *Config) { c.Buildings = 0 }, "Buildings"},
		{"aps", func(c *Config) { c.APsPerBuilding = 0 }, "APsPerBuilding"},
		{"users", func(c *Config) { c.Users = -1 }, "Users"},
		{"group size", func(c *Config) { c.GroupSizeMin = 1 }, ""},
		{"group range", func(c *Config) { c.GroupSizeMax = c.GroupSizeMin - 1 }, ""},
		{"solo", func(c *Config) { c.SoloFraction = 1.0 }, "SoloFraction"},
		{"attendance", func(c *Config) { c.AttendanceProb = 0 }, "AttendanceProb"},
		{"coleave", func(c *Config) { c.CoLeaveProb = 1.5 }, "CoLeaveProb"},
		{"activities", func(c *Config) { c.ActivitiesPerDay = 0 }, "ActivitiesPerDay"},
		// The two jitters reach rng.Int63n(2·jitter + 1), which panics at ≤ 0.
		{"arrival jitter", func(c *Config) { c.ArrivalJitterSeconds = -1 }, "ArrivalJitterSeconds"},
		{"co-leave jitter", func(c *Config) { c.CoLeaveJitterSeconds = -90 }, "CoLeaveJitterSeconds"},
		{"secondary low", func(c *Config) { c.SecondaryGroupProb = -0.1 }, "SecondaryGroupProb"},
		{"secondary high", func(c *Config) { c.SecondaryGroupProb = 1.1 }, "SecondaryGroupProb"},
		{"home low", func(c *Config) { c.HomeBuildingProb = -0.1 }, "HomeBuildingProb"},
		{"home high", func(c *Config) { c.HomeBuildingProb = 2 }, "HomeBuildingProb"},
		{"weekend low", func(c *Config) { c.WeekendActivity = -0.3 }, "WeekendActivity"},
		{"weekend high", func(c *Config) { c.WeekendActivity = 1.3 }, "WeekendActivity"},
		{"solo sessions", func(c *Config) { c.SoloSessionsPerDay = -2 }, "SoloSessionsPerDay"},
		{"capacity", func(c *Config) { c.APCapacityBps = -12e6 }, "APCapacityBps"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tt.field) {
				t.Errorf("error %q does not name %s", err, tt.field)
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// The edges of every closed range stay valid.
	edges := DefaultConfig()
	edges.ArrivalJitterSeconds, edges.CoLeaveJitterSeconds = 0, 0
	edges.SecondaryGroupProb, edges.HomeBuildingProb, edges.WeekendActivity = 0, 1, 1
	edges.SoloSessionsPerDay, edges.APCapacityBps = 0, 0
	edges.Users, edges.Days = 60, 3
	if _, _, err := Generate(edges); err != nil {
		t.Errorf("config on the edges of its ranges: %v", err)
	}
}

func TestGeneratedSocialityIsLearnable(t *testing.T) {
	// The planted group structure must be recoverable: intra-group pairs
	// should show far more co-leavings than cross-group pairs.
	tr, truth, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	coLeaves := society.ExtractCoLeavings(tr.Sessions, 300)
	intra, cross := 0, 0
	for _, ev := range coLeaves {
		gA := truth.PrimaryGroup[ev.Pair.A]
		gB := truth.PrimaryGroup[ev.Pair.B]
		if gA >= 0 && gA == gB {
			intra++
		} else {
			cross++
		}
	}
	if intra == 0 {
		t.Fatal("no intra-group co-leavings generated")
	}
	if intra <= cross {
		t.Errorf("intra-group co-leavings (%d) should dominate cross (%d)",
			intra, cross)
	}
}

func TestGeneratedProfilesMatchArchetypes(t *testing.T) {
	tr, truth, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := apps.BuildProfiles(tr.Flows, 0, apps.NewClassifier())
	checked := 0
	for _, u := range ps.Users() {
		vec, ok := ps.MeanNormalized(u)
		if !ok {
			continue
		}
		arch := truth.UserArchetype[u]
		mix := archetypeMixes[arch]
		// The dominant realm of the profile should match the archetype's
		// dominant realm.
		wantIdx, gotIdx := argmax(mix[:]), argmax(vec)
		if wantIdx == gotIdx {
			checked++
		}
	}
	if checked < len(ps.Users())*7/10 {
		t.Errorf("only %d/%d users' dominant realm matches their archetype",
			checked, len(ps.Users()))
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func TestGeneratedDiurnalShape(t *testing.T) {
	tr, _, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Count arrivals by hour of day; the 10:00 and 15:00 slots must
	// dominate the early morning.
	byHour := make([]int, 24)
	for _, s := range tr.Sessions {
		byHour[trace.HourOfDay(0, s.ConnectAt)]++
	}
	if byHour[10]+byHour[15] <= byHour[3]+byHour[4]+byHour[5]+byHour[6] {
		t.Errorf("no diurnal peak: %v", byHour)
	}
}

func TestArchetypeString(t *testing.T) {
	tests := []struct {
		a    Archetype
		want string
	}{
		{ArchetypeMessenger, "messenger"},
		{ArchetypeDownloader, "downloader"},
		{ArchetypeStreamer, "streamer"},
		{ArchetypeWorker, "worker"},
		{Archetype(9), "Archetype(9)"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestArchetypeMixesNormalized(t *testing.T) {
	for a, mix := range archetypeMixes {
		var sum float64
		for _, w := range mix {
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("archetype %v mixture sums to %v", a, sum)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"", "campus", "office", "conference", "paper"} {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	// The paper preset is checked, not generated: it draws 22.8 M flows.
	paper, err := Preset("paper")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Users, want.Buildings, want.APsPerBuilding, want.Days = 12374, 22, 15, 90
	if paper != want {
		t.Errorf("paper preset = %+v, want %+v", paper, want)
	}
	if topo := buildTopology(paper); len(topo.APs) != 330 || len(topo.Controllers()) != 22 {
		t.Errorf("paper topology: %d APs on %d controllers, want 330 on 22", len(topo.APs), len(topo.Controllers()))
	}
	if _, err := Preset("mall"); err == nil {
		t.Error("unknown preset should error")
	}
	// Presets generate successfully at reduced scale.
	cfg, err := Preset("conference")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Users = 80
	cfg.Days = 3
	tr, truth, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sessions) == 0 {
		t.Error("conference preset generated no sessions")
	}
	// Conference groups are large.
	for gi, g := range truth.Groups {
		if len(g) > 60 {
			t.Errorf("group %d size %d implausible", gi, len(g))
		}
	}
}
