// Package baseline implements the comparison association policies of the
// S³ evaluation: Least Loaded First (the paper's state-of-the-art
// baseline, LLF), the strongest-RSSI default every 802.11 client ships
// with, plus random and round-robin controls.
package baseline

import (
	"errors"
	"math/rand"

	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// ErrNoAPs is returned when a selector is called with no candidate APs.
var ErrNoAPs = errors.New("baseline: no candidate APs")

// LLF is the Least Loaded First policy: a new user is assigned to the AP
// with the least current traffic load, the strategy the paper attributes
// to enterprise WLAN controllers (Judd & Steenkiste). Ties break on the
// smaller user count, then AP ID for determinism.
type LLF struct{}

var _ wlan.Selector = LLF{}

// Name implements wlan.Selector.
func (LLF) Name() string { return "LLF" }

// Select implements wlan.Selector.
func (LLF) Select(_ wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	best := aps[0]
	for _, ap := range aps[1:] {
		if less(ap, best) {
			best = ap
		}
	}
	return best.ID, nil
}

func less(a, b wlan.APView) bool {
	if a.LoadBps != b.LoadBps {
		return a.LoadBps < b.LoadBps
	}
	if a.NumUsers != b.NumUsers {
		return a.NumUsers < b.NumUsers
	}
	return a.ID < b.ID
}

// LeastUsers assigns to the AP with the fewest associated users — the
// "least number of users" variant the paper mentions controllers also
// use. Ties break on load, then ID.
type LeastUsers struct{}

var _ wlan.Selector = LeastUsers{}

// Name implements wlan.Selector.
func (LeastUsers) Name() string { return "LeastUsers" }

// Select implements wlan.Selector.
func (LeastUsers) Select(_ wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	best := aps[0]
	for _, ap := range aps[1:] {
		if ap.NumUsers < best.NumUsers ||
			(ap.NumUsers == best.NumUsers && less(ap, best)) {
			best = ap
		}
	}
	return best.ID, nil
}

// StrongestRSSI is the 802.11 client default: associate with the AP whose
// signal is strongest, ignoring load — the behaviour whose imbalance
// motivates the paper.
type StrongestRSSI struct{}

var _ wlan.Selector = StrongestRSSI{}

// Name implements wlan.Selector.
func (StrongestRSSI) Name() string { return "StrongestRSSI" }

// Select implements wlan.Selector.
func (StrongestRSSI) Select(_ wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	best := aps[0]
	for _, ap := range aps[1:] {
		if ap.RSSI > best.RSSI ||
			(ap.RSSI == best.RSSI && ap.ID < best.ID) {
			best = ap
		}
	}
	return best.ID, nil
}

// Random assigns uniformly at random (seeded, for reproducibility).
type Random struct {
	rng *rand.Rand
}

var _ wlan.Selector = (*Random)(nil)

// NewRandom returns a Random selector seeded with seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements wlan.Selector.
func (*Random) Name() string { return "Random" }

// Select implements wlan.Selector.
func (r *Random) Select(_ wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	return aps[r.rng.Intn(len(aps))].ID, nil
}

// RoundRobin cycles through APs in order, a load-oblivious control.
type RoundRobin struct {
	next int
}

var _ wlan.Selector = (*RoundRobin)(nil)

// Name implements wlan.Selector.
func (*RoundRobin) Name() string { return "RoundRobin" }

// Select implements wlan.Selector.
func (rr *RoundRobin) Select(_ wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	ap := aps[rr.next%len(aps)]
	rr.next++
	return ap.ID, nil
}
