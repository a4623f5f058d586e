// Package s3wlan is the public API of the S³ reproduction: sociality-aware
// AP selection for user-friendly, steady load balancing in enterprise
// WLANs (Yue et al., ICDCS 2013).
//
// The package re-exports the library's stable surface via type aliases and
// provides the end-to-end workflow:
//
//	cfg := s3wlan.DefaultCampusConfig()
//	tr, _, _ := s3wlan.GenerateCampus(cfg)           // or load a trace
//	train, test := tr.SplitAt(cut)                   // may share tr's storage
//	model, _ := s3wlan.TrainModel(train, cfg.Epoch, s3wlan.DefaultSocietyConfig())
//	selector, _ := s3wlan.NewSelector(model, s3wlan.DefaultSelectorConfig())
//	result, _ := s3wlan.Simulate(test, s3wlan.SimConfig{ SelectorFor: ... })
//
// Subsystems:
//
//   - trace model and codecs (sessions, flows, topology),
//   - application-profile pipeline (port classification, daily profiles),
//   - sociality learning (encounters, co-leavings, k-means types, θ),
//   - the S³ selector (online + Algorithm 1 batch placement),
//   - baseline policies, the discrete-event WLAN simulator,
//   - measurement/evaluation harnesses for every figure and table of the
//     paper, and
//   - a TCP prototype controller.
package s3wlan

import (
	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Trace data model.
type (
	// Trace is a complete dataset: topology, sessions and flows.
	Trace = trace.Trace
	// Session is one association record.
	Session = trace.Session
	// Flow is one core-router flow summary.
	Flow = trace.Flow
	// Topology describes controllers and APs.
	Topology = trace.Topology
	// AP describes one access point.
	AP = trace.AP
	// UserID identifies a user (hashed MAC).
	UserID = trace.UserID
	// APID identifies an access point.
	APID = trace.APID
	// ControllerID identifies a controller domain.
	ControllerID = trace.ControllerID
)

// Synthetic campus generation.
type (
	// CampusConfig parameterizes the synthetic campus generator.
	CampusConfig = synth.Config
	// GroundTruth records the planted social structure.
	GroundTruth = synth.GroundTruth
)

// Sociality learning.
type (
	// SocietyConfig holds the sociality-learning parameters (co-leave
	// window, α, history days, …).
	SocietyConfig = society.Config
	// Model is a trained sociality model: its Index(u, v) is θ(u,v).
	Model = society.Model
)

// The S³ policy and simulation.
type (
	// SelectorConfig tunes the S³ policy.
	SelectorConfig = core.SelectorConfig
	// Selector is the S³ association policy.
	Selector = core.Selector
	// SimConfig configures a simulation run.
	SimConfig = wlan.Config
	// SimResult is a completed simulation.
	SimResult = wlan.Result
	// APView is a policy's view of one AP.
	APView = wlan.APView
	// Request is one association request.
	Request = wlan.Request
	// Policy is the pluggable association-policy interface.
	Policy = wlan.Selector
	// Failure injects an AP outage into a simulation.
	Failure = wlan.Failure
	// RunStats summarizes a completed simulation.
	RunStats = wlan.RunStats
)

// Baselines.
type (
	// LLF is the Least Loaded First baseline.
	LLF = baseline.LLF
	// LeastUsers assigns to the AP with the fewest users.
	LeastUsers = baseline.LeastUsers
	// StrongestRSSI is the 802.11 client default.
	StrongestRSSI = baseline.StrongestRSSI
)

// Prototype.
type (
	// Controller is the prototype TCP WLAN controller.
	Controller = protocol.Controller
	// APAgent is the prototype AP client.
	APAgent = protocol.APAgent
	// Station is the prototype user client.
	Station = protocol.Station
)

// Experiments.
type (
	// ExperimentData is a prepared train/test dataset.
	ExperimentData = experiments.Data
)

// DefaultCampusConfig returns the generator's default campus scale.
func DefaultCampusConfig() CampusConfig { return synth.DefaultConfig() }

// DefaultSocietyConfig returns the paper's sociality operating point
// (five-minute co-leave window, α = 0.3, 15-day history, k = 4).
func DefaultSocietyConfig() SocietyConfig { return society.DefaultConfig() }

// DefaultSelectorConfig returns the paper's S³ policy operating point.
func DefaultSelectorConfig() SelectorConfig { return core.DefaultSelectorConfig() }

// GenerateCampus builds a synthetic campus trace with planted social
// structure (the documented substitution for the paper's proprietary SJTU
// trace).
func GenerateCampus(cfg CampusConfig) (*Trace, *GroundTruth, error) {
	return synth.Generate(cfg)
}

// LoadTrace reads a JSON-lines trace from disk.
func LoadTrace(path string) (*Trace, error) { return trace.LoadFile(path) }

// SaveTrace writes a JSON-lines trace to disk.
func SaveTrace(path string, tr *Trace) error { return trace.SaveFile(path, tr) }

// TrainModel learns a sociality model from a training trace: it builds
// daily application profiles from the trace's flows, clusters users into
// usage types, extracts encounters and co-leavings, and estimates θ.
func TrainModel(train *Trace, epoch int64, cfg SocietyConfig) (*Model, error) {
	profiles := apps.BuildProfiles(train.Flows, epoch, apps.NewClassifier())
	return society.Train(train, profiles, cfg)
}

// NewSelector builds the S³ association policy over a trained model.
func NewSelector(model *Model, cfg SelectorConfig) (*Selector, error) {
	return core.NewSelector(model, cfg)
}

// Simulate replays a trace's arrivals through an association policy.
func Simulate(tr *Trace, cfg SimConfig) (*SimResult, error) {
	return wlan.Simulate(tr, cfg)
}

// NewController builds a prototype TCP controller around any policy.
func NewController(policy Policy, opts ...protocol.ControllerOption) (*Controller, error) {
	return protocol.NewController(policy, opts...)
}

// PrepareExperiment generates a campus and splits it into the paper's
// training/test protocol, ready for the Fig. 10–12 harnesses. Its traces
// carry no flows: the training profiles are built as the campus is drawn.
func PrepareExperiment(campus CampusConfig, trainDays int) (*ExperimentData, error) {
	return experiments.Prepare(campus, trainDays)
}

// BalanceIndex returns the Chiu–Jain balance index of per-AP loads.
func BalanceIndex(loads []float64) (float64, error) {
	return metrics.BalanceIndex(loads)
}

// NormalizedBalanceIndex maps the balance index onto [0, 1].
func NormalizedBalanceIndex(loads []float64) (float64, error) {
	return metrics.NormalizedBalanceIndex(loads)
}

// MaxMinRatio returns the min/max fairness of per-AP loads.
func MaxMinRatio(loads []float64) (float64, error) {
	return metrics.MaxMinRatio(loads)
}

// ProportionalFairness returns the normalized proportional-fairness
// score of per-AP loads.
func ProportionalFairness(loads []float64) (float64, error) {
	return metrics.ProportionalFairness(loads)
}

// LiveLearner is the live sociality learner (the paper's future-work
// deployment mode): the incremental engine, which learns θ from
// Connect/Disconnect events as a controller reports them and publishes
// it for a selector to read without locking.
type LiveLearner = incremental.Engine

// NewLiveLearner builds an empty live learner at the engine's default
// edge threshold and refresh cadence.
func NewLiveLearner(cfg SocietyConfig) *LiveLearner {
	c := incremental.DefaultConfig()
	c.Society = cfg
	return incremental.New(c)
}

// SaveModel persists a trained sociality model to disk (JSON).
func SaveModel(path string, m *Model) error { return society.SaveModel(path, m) }

// LoadModel restores a sociality model saved with SaveModel.
func LoadModel(path string) (*Model, error) { return society.LoadModel(path) }
