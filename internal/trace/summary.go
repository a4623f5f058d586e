package trace

import (
	"fmt"
	"slices"
	"strings"
)

// Summary is a descriptive overview of a trace, used by the CLI tools and
// useful as a first integrity check on externally supplied data.
type Summary struct {
	Users       int
	Sessions    int
	Flows       int
	Controllers int
	APs         int
	Start, End  int64
	TotalBytes  int64
	// MeanSessionSeconds is the average session duration.
	MeanSessionSeconds float64
	// SessionsPerController maps each domain to its session count.
	SessionsPerController map[ControllerID]int
	// ArrivalsByHour counts session starts per hour of day (0–23),
	// relative to the epoch passed to Summarize.
	ArrivalsByHour [24]int
}

// Summarize computes a Summary. epoch anchors the hour-of-day histogram.
func (tr *Trace) Summarize(epoch int64) Summary {
	s := Summary{
		Users:                 len(tr.Users()),
		Sessions:              len(tr.Sessions),
		Flows:                 len(tr.Flows),
		Controllers:           len(tr.Topology.Controllers()),
		APs:                   len(tr.Topology.APs),
		SessionsPerController: make(map[ControllerID]int),
	}
	s.Start, s.End = tr.TimeRange()
	var durSum int64
	for _, sess := range tr.Sessions {
		s.TotalBytes += sess.Bytes
		durSum += sess.Duration()
		s.SessionsPerController[sess.Controller]++
		s.ArrivalsByHour[HourOfDay(epoch, sess.ConnectAt)]++
	}
	if len(tr.Sessions) > 0 {
		s.MeanSessionSeconds = float64(durSum) / float64(len(tr.Sessions))
	}
	return s
}

// String renders the summary for human consumption.
func (s Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d users, %d sessions, %d flows\n",
		s.Users, s.Sessions, s.Flows)
	fmt.Fprintf(&sb, "topology: %d controllers, %d APs\n", s.Controllers, s.APs)
	fmt.Fprintf(&sb, "time: %s .. %s\n", FormatTime(s.Start), FormatTime(s.End))
	fmt.Fprintf(&sb, "volume: %d bytes, mean session %.0f s\n",
		s.TotalBytes, s.MeanSessionSeconds)
	ctls := make([]ControllerID, 0, len(s.SessionsPerController))
	for c := range s.SessionsPerController {
		ctls = append(ctls, c)
	}
	slices.Sort(ctls)
	for _, c := range ctls {
		fmt.Fprintf(&sb, "  %s: %d sessions\n", c, s.SessionsPerController[c])
	}
	return sb.String()
}

// PeakArrivalHour returns the busiest hour of day and its arrival count.
func (s Summary) PeakArrivalHour() (hour, count int) {
	for h, c := range s.ArrivalsByHour {
		if c > count {
			hour, count = h, c
		}
	}
	return hour, count
}
