package wlan

import (
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Request describes one user asking to associate.
type Request struct {
	// User is the requesting station.
	User trace.UserID
	// At is the simulated time of the request.
	At int64
	// DemandBps is the user's estimated bandwidth demand w(u) in
	// bytes/second.
	DemandBps float64
}

// APView is a selector's read-only view of one AP's live state. It is
// an alias of domain.APView: the shared association-domain core
// (internal/domain) assembles the views for both this simulator and the
// live controller, so a policy sees byte-identical candidate state in
// either driver. Capacity admission (HasCapacityFor) routes through
// domain.Admits.
type APView = domain.APView

// Selector is an association policy: given a request and the live state of
// the candidate APs in the controller domain, pick one AP. Implementations
// must be deterministic for reproducible experiments. aps is never empty.
// The live controller (internal/protocol) calls Select, never
// SelectBatch, under its lock, so a policy must not call back into the
// controller.
type Selector interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Select returns the chosen AP's ID. Returning an ID not present in
	// aps is a programming error and fails the simulation.
	Select(req Request, aps []APView) (trace.APID, error)
}

// BatchSelector is an optional extension for policies that distribute a
// group of simultaneous arrivals jointly (S³'s Algorithm 1 distributes
// socially-tight cliques across APs in one decision). The simulator
// batches one controller's arrivals within Config.BatchWindowSeconds and
// offers them to SelectBatch; the result maps every user in reqs to an AP.
type BatchSelector interface {
	Selector
	SelectBatch(reqs []Request, aps []APView) (map[trace.UserID]trace.APID, error)
}
