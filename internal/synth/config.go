// Package synth generates synthetic enterprise-WLAN traces with the
// structure the S³ paper measured in the SJTU campus network: a building/
// controller/AP topology, a user population partitioned into social groups
// with scheduled activities (classes, meetings) that produce co-arrivals
// and co-leavings, per-user application profiles drawn from four
// archetypes, and a diurnal load shape with the paper's peak hours.
//
// The proprietary SJTU trace is unavailable; this generator is the
// documented substitution (DESIGN.md §2). Every behaviour the paper's
// analyses depend on — churn-driven imbalance, co-leaving sociality, and
// the correlation between application profiles and co-leaving — is
// explicit, tunable ground truth here.
package synth

import (
	"errors"
	"fmt"
)

// Archetype is a user's application-usage archetype. The paper's k-means
// clustering of real profiles finds four groups; the generator plants
// four corresponding archetypes.
type Archetype int

// The four archetypes. Mixture weights live in archetypeMixes.
const (
	ArchetypeMessenger  Archetype = iota + 1 // IM + web centric
	ArchetypeDownloader                      // P2P + music centric
	ArchetypeStreamer                        // video centric
	ArchetypeWorker                          // email + web centric
)

// NumArchetypes is the number of planted archetypes.
const NumArchetypes = 4

// String returns the archetype's display name.
func (a Archetype) String() string {
	if a < ArchetypeMessenger || a > ArchetypeWorker {
		return fmt.Sprintf("Archetype(%d)", int(a))
	}
	return [...]string{"messenger", "downloader", "streamer", "worker"}[a-1]
}

// Config parameterizes the generated campus. DefaultConfig documents the
// scale used by the experiment harness.
type Config struct {
	// Seed drives all randomness; equal seeds give identical traces.
	Seed int64
	// Epoch is the Unix timestamp of day 0, 00:00. Day boundaries fall on
	// multiples of 86400 after it.
	Epoch int64
	// Days is the total trace length in days.
	Days int
	// Buildings is the number of buildings; each hosts one WLAN
	// controller domain.
	Buildings int
	// APsPerBuilding is the AP count per building.
	APsPerBuilding int
	// APCapacityBps is each AP's bandwidth W(i), bytes/second.
	APCapacityBps float64
	// Users is the total population size.
	Users int
	// GroupSizeMin and GroupSizeMax bound social-group sizes.
	GroupSizeMin, GroupSizeMax int
	// SoloFraction is the share of users not in any group (independent
	// churn/noise).
	SoloFraction float64
	// ResidentFraction is the share of users who are long-stay residents
	// (staff/lab desks): one long session per workday in a home building.
	// Residents provide the persistent base load whose balance the
	// group churn perturbs.
	ResidentFraction float64
	// SecondaryGroupProb is the chance a grouped user also joins a second
	// group (creates cross-group social edges).
	SecondaryGroupProb float64
	// AttendanceProb is the chance a member attends a given group
	// activity.
	AttendanceProb float64
	// CoLeaveProb is the chance an attending member leaves within the
	// co-leave jitter of the activity end (vs. leaving independently).
	CoLeaveProb float64
	// ArrivalJitterSeconds and CoLeaveJitterSeconds bound the uniform
	// jitter applied to group arrivals and co-leavings.
	ArrivalJitterSeconds, CoLeaveJitterSeconds int64
	// ActivitiesPerDay is the number of scheduled activities per group on
	// a workday.
	ActivitiesPerDay int
	// HomeBuildingProb is the chance an activity happens in the group's
	// home building.
	HomeBuildingProb float64
	// SoloSessionsPerDay is the mean number of sessions a solo user opens
	// per workday.
	SoloSessionsPerDay float64
	// WeekendActivity scales weekend activity relative to workdays.
	WeekendActivity float64
}

// DefaultConfig returns the scale used by the experiment harness: a
// medium campus that runs in seconds while preserving the paper's
// structure (many controller domains, thousands of sessions, strong group
// churn).
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Epoch:                0,
		Days:                 31, // 28 training + 3 test, as in the paper
		Buildings:            10,
		APsPerBuilding:       4,
		APCapacityBps:        12e6,
		Users:                600,
		GroupSizeMin:         6,
		GroupSizeMax:         14,
		SoloFraction:         0.15,
		ResidentFraction:     0.2,
		SecondaryGroupProb:   0.15,
		AttendanceProb:       0.85,
		CoLeaveProb:          0.85,
		ArrivalJitterSeconds: 240,
		CoLeaveJitterSeconds: 90,
		ActivitiesPerDay:     2,
		HomeBuildingProb:     0.7,
		SoloSessionsPerDay:   2,
		WeekendActivity:      0.3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Days <= 0:
		return errors.New("synth: Days must be positive")
	case c.Buildings <= 0:
		return errors.New("synth: Buildings must be positive")
	case c.APsPerBuilding <= 0:
		return errors.New("synth: APsPerBuilding must be positive")
	case c.Users <= 0:
		return errors.New("synth: Users must be positive")
	case c.Users >= 1<<rankBits: // a flow's sort key holds its user's rank
		return fmt.Errorf("synth: Users %d is not below 2^%d", c.Users, rankBits)
	case c.GroupSizeMin <= 1 || c.GroupSizeMax < c.GroupSizeMin:
		return fmt.Errorf("synth: invalid group size range [%d, %d]",
			c.GroupSizeMin, c.GroupSizeMax)
	case c.SoloFraction < 0 || c.SoloFraction >= 1:
		return fmt.Errorf("synth: SoloFraction %v out of [0, 1)", c.SoloFraction)
	case c.ResidentFraction < 0 || c.SoloFraction+c.ResidentFraction >= 1:
		return fmt.Errorf("synth: SoloFraction+ResidentFraction %v out of [0, 1)",
			c.SoloFraction+c.ResidentFraction)
	case c.AttendanceProb <= 0 || c.AttendanceProb > 1:
		return fmt.Errorf("synth: AttendanceProb %v out of (0, 1]", c.AttendanceProb)
	case c.CoLeaveProb < 0 || c.CoLeaveProb > 1:
		return fmt.Errorf("synth: CoLeaveProb %v out of [0, 1]", c.CoLeaveProb)
	case c.ActivitiesPerDay <= 0:
		return errors.New("synth: ActivitiesPerDay must be positive")
	case c.APCapacityBps < 0:
		return fmt.Errorf("synth: APCapacityBps %v is negative", c.APCapacityBps)
	case c.SecondaryGroupProb < 0 || c.SecondaryGroupProb > 1:
		return fmt.Errorf("synth: SecondaryGroupProb %v out of [0, 1]", c.SecondaryGroupProb)
	case c.HomeBuildingProb < 0 || c.HomeBuildingProb > 1:
		return fmt.Errorf("synth: HomeBuildingProb %v out of [0, 1]", c.HomeBuildingProb)
	case c.WeekendActivity < 0 || c.WeekendActivity > 1:
		return fmt.Errorf("synth: WeekendActivity %v out of [0, 1]", c.WeekendActivity)
	case c.ArrivalJitterSeconds < 0: // Generate draws rng.Int63n(2·jitter + 1)
		return fmt.Errorf("synth: ArrivalJitterSeconds %d is negative", c.ArrivalJitterSeconds)
	case c.CoLeaveJitterSeconds < 0:
		return fmt.Errorf("synth: CoLeaveJitterSeconds %d is negative", c.CoLeaveJitterSeconds)
	case c.SoloSessionsPerDay < 0:
		return fmt.Errorf("synth: SoloSessionsPerDay %v is negative", c.SoloSessionsPerDay)
	}
	return nil
}

// Preset returns a named scenario configuration:
//
//   - "campus": the default — a university with classes, labs and a
//     broad solo population (the paper's setting).
//   - "office": an enterprise building pair — meeting-heavy churn, a
//     large resident workforce at desks, small groups.
//   - "conference": a venue where almost everyone moves in session-sized
//     blocks — extreme co-leaving, few residents, large groups.
func Preset(name string) (Config, error) {
	cfg := DefaultConfig()
	switch name {
	case "campus", "":
		return cfg, nil
	case "office":
		cfg.Buildings = 2
		cfg.APsPerBuilding = 8
		cfg.Users = 400
		cfg.GroupSizeMin = 4
		cfg.GroupSizeMax = 10
		cfg.ActivitiesPerDay = 3
		cfg.ResidentFraction = 0.35
		cfg.SoloFraction = 0.1
		return cfg, nil
	case "conference":
		cfg.Buildings = 1
		cfg.APsPerBuilding = 12
		cfg.Users = 500
		cfg.GroupSizeMin = 15
		cfg.GroupSizeMax = 40
		cfg.ActivitiesPerDay = 4
		cfg.ResidentFraction = 0.05
		cfg.SoloFraction = 0.05
		cfg.CoLeaveProb = 0.95
		cfg.HomeBuildingProb = 1
		return cfg, nil
	default:
		return Config{}, fmt.Errorf("synth: unknown preset %q (want campus, office or conference)", name)
	}
}
