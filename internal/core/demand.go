// Package core implements the paper's primary contribution: the S³
// (Social-aware AP Selection Scheme) association policy. It combines a
// trained sociality model (internal/society) with live AP state to place
// each arriving user so that socially-tight users — those likely to leave
// together — end up on different APs, keeping load balanced through churn
// without ever migrating an associated user.
package core

import (
	"errors"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// DemandEstimator predicts a user's bandwidth demand w(u) from their
// session history, per the paper's reference to multiscale traffic
// predictability: the mean observed per-session throughput, falling back
// to the population mean for unseen users.
type DemandEstimator struct {
	perUser map[trace.UserID]float64
	global  float64
}

// ErrNoHistory is returned when an estimator is built with no usable
// sessions.
var ErrNoHistory = errors.New("core: no history sessions with positive duration")

// NewDemandEstimator trains an estimator from historical sessions.
// Zero-duration sessions are skipped.
func NewDemandEstimator(history []trace.Session) (*DemandEstimator, error) {
	sums := make(map[trace.UserID]float64)
	counts := make(map[trace.UserID]int)
	var globalSum float64
	var globalN int
	for _, s := range history {
		tp := s.Throughput()
		if s.Duration() <= 0 {
			continue
		}
		sums[s.User] += tp
		counts[s.User]++
		globalSum += tp
		globalN++
	}
	if globalN == 0 {
		return nil, ErrNoHistory
	}
	perUser := make(map[trace.UserID]float64, len(sums))
	for u, sum := range sums {
		perUser[u] = sum / float64(counts[u])
	}
	return &DemandEstimator{
		perUser: perUser,
		global:  globalSum / float64(globalN),
	}, nil
}

// Demand returns the estimated bytes/second for user u.
func (d *DemandEstimator) Demand(u trace.UserID) float64 {
	if v, ok := d.perUser[u]; ok {
		return v
	}
	return d.global
}
