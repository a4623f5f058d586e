package synth

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/s3wlan/s3wlan/internal/apps"
)

// TestGenerateProfilesMatchesBuildProfiles holds the streamed sink to the
// flow list: GenerateProfiles' store must equal apps.BuildProfiles over the
// training flows of Generate's SplitAt at the same cut, its trace must
// carry Generate's topology and sessions and no flows, and it must still
// count every flow it draws and observe its generation.
func TestGenerateProfilesMatchesBuildProfiles(t *testing.T) {
	small := DefaultConfig()
	small.Users, small.Buildings, small.Days = 150, 3, 12
	for _, c := range []struct {
		name      string
		cfg       Config
		trainDays []int
	}{
		{"small", small, []int{1, 9, small.Days - 1}},
		{"default", DefaultConfig(), []int{1, 28, DefaultConfig().Days - 1}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := c.cfg
			cfg.Seed = seed
			full, _, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, days := range c.trainDays {
				t.Run(fmt.Sprintf("%s/seed%d/train%d", c.name, seed, days), func(t *testing.T) {
					cut := cfg.Epoch + int64(days)*86400
					flows, generations := obsFlows.Value(), obsGenerate.Count()
					tr, profiles, _, err := GenerateProfiles(cfg, cut)
					if err != nil {
						t.Fatal(err)
					}
					if got := obsFlows.Value() - flows; got != int64(len(full.Flows)) {
						t.Errorf("synth.flows counted %d drawn flows, want %d", got, len(full.Flows))
					}
					if got := obsGenerate.Count() - generations; got != 1 {
						t.Errorf("synth.generate observed %d generations, want 1", got)
					}
					train, _ := full.SplitAt(cut)
					if len(train.Flows) == 0 {
						t.Fatal("no training flows to compare")
					}
					want := apps.BuildProfiles(train.Flows, cfg.Epoch, apps.NewClassifier())
					if !reflect.DeepEqual(profiles, want) {
						t.Errorf("streamed profiles differ from BuildProfiles over %d training flows", len(train.Flows))
					}
					if !reflect.DeepEqual(tr.Topology, full.Topology) {
						t.Error("topology differs from Generate's")
					}
					if !slices.Equal(tr.Sessions, full.Sessions) {
						t.Error("sessions differ from Generate's")
					}
					if tr.Flows != nil {
						t.Errorf("GenerateProfiles kept %d flows", len(tr.Flows))
					}
				})
			}
		}
	}
}
