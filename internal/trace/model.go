// Package trace defines the WLAN usage-trace data model of the S³ study and
// provides codecs (CSV and JSON-lines), time utilities, and trace-level
// operations (splitting, filtering, binning).
//
// A trace mirrors what the paper collected from the SJTU back-end data
// center: per-session login records (user, AP, connect/disconnect time,
// served volume) plus core-router flow records (addresses, ports, volume)
// used for application identification. User identifiers are hashed, as in
// the paper.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// UserID identifies a WLAN user (a hashed wireless-card MAC address).
type UserID string

// APID identifies an access point.
type APID string

// ControllerID identifies a WLAN controller domain (a set of APs).
type ControllerID string

// Session is one login record: a user's association with an AP from
// ConnectAt to DisconnectAt, during which Bytes of traffic were served.
// Times are Unix seconds.
type Session struct {
	User         UserID       `json:"user"`
	AP           APID         `json:"ap"`
	Controller   ControllerID `json:"controller"`
	ConnectAt    int64        `json:"connect_at"`
	DisconnectAt int64        `json:"disconnect_at"`
	Bytes        int64        `json:"bytes"`
}

// Duration returns the session length in seconds.
func (s Session) Duration() int64 { return s.DisconnectAt - s.ConnectAt }

// Throughput returns the session's mean served rate in bytes/second.
// Zero-length sessions report zero.
func (s Session) Throughput() float64 {
	d := s.Duration()
	if d <= 0 {
		return 0
	}
	return float64(s.Bytes) / float64(d)
}

// Overlap returns the number of seconds the two sessions overlap in time
// (regardless of AP). Non-overlapping sessions return 0.
func (s Session) Overlap(o Session) int64 {
	start := max(s.ConnectAt, o.ConnectAt)
	end := min(s.DisconnectAt, o.DisconnectAt)
	if end <= start {
		return 0
	}
	return end - start
}

// Validate reports whether the session is internally consistent.
func (s Session) Validate() error {
	switch {
	case s.User == "":
		return fmt.Errorf("trace: session missing user")
	case s.AP == "":
		return fmt.Errorf("trace: session missing AP")
	case s.DisconnectAt < s.ConnectAt:
		return fmt.Errorf("trace: session for %s ends (%d) before it starts (%d)",
			s.User, s.DisconnectAt, s.ConnectAt)
	case s.Bytes < 0:
		return fmt.Errorf("trace: session for %s has negative volume %d",
			s.User, s.Bytes)
	}
	return nil
}

// Flow is one core-router flow summary used for application
// identification. Times are Unix seconds.
type Flow struct {
	User    UserID `json:"user"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Proto   string `json:"proto"` // "tcp" or "udp"
	SrcPort int    `json:"src_port"`
	DstPort int    `json:"dst_port"`
	Bytes   int64  `json:"bytes"`
}

// Validate reports whether the flow is internally consistent.
func (f Flow) Validate() error {
	switch {
	case f.User == "":
		return fmt.Errorf("trace: flow missing user")
	case f.End < f.Start:
		return fmt.Errorf("trace: flow for %s ends before it starts", f.User)
	case f.Bytes < 0:
		return fmt.Errorf("trace: flow for %s has negative volume", f.User)
	case f.SrcPort < 0 || f.SrcPort > 65535 || f.DstPort < 0 || f.DstPort > 65535:
		return fmt.Errorf("trace: flow for %s has invalid port", f.User)
	}
	return nil
}

// AP describes one access point in the topology.
type AP struct {
	ID         APID         `json:"id"`
	Controller ControllerID `json:"controller"`
	Building   string       `json:"building"`
	// CapacityBps is the AP's usable bandwidth W(i) in bytes/second.
	CapacityBps float64 `json:"capacity_bps"`
}

// Topology describes the enterprise WLAN: APs grouped under controllers.
type Topology struct {
	APs []AP `json:"aps"`
}

// Controllers returns the distinct controller IDs in stable (sorted) order.
func (t *Topology) Controllers() []ControllerID {
	seen := make(map[ControllerID]bool, len(t.APs))
	var out []ControllerID
	for _, ap := range t.APs {
		if !seen[ap.Controller] {
			seen[ap.Controller] = true
			out = append(out, ap.Controller)
		}
	}
	slices.Sort(out)
	return out
}

// APsOf returns the APs under the given controller, in stable order.
func (t *Topology) APsOf(c ControllerID) []AP {
	var out []AP
	for _, ap := range t.APs {
		if ap.Controller == c {
			out = append(out, ap)
		}
	}
	slices.SortFunc(out, func(a, b AP) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Trace is a complete dataset: topology plus session and flow records.
type Trace struct {
	Topology Topology  `json:"topology"`
	Sessions []Session `json:"sessions"`
	Flows    []Flow    `json:"flows"`
}

// SortSessions orders sessions by connect time (ties: user, AP) in place.
// It sorts one pointer-free (ConnectAt, index) key per session, whose
// comparator reads the sessions' strings only on a tie and so has the sign
// of comparing the sessions themselves on every pair: slices.SortFunc makes
// the same swaps, and ties keep the order a sort of the sessions gives
// them. Then each session moves once, cycle by cycle.
func (tr *Trace) SortSessions() {
	s := tr.Sessions
	keys := make([]sessionKey, len(s))
	for i := range s {
		keys[i] = sessionKey{s[i].ConnectAt, i}
	}
	slices.SortFunc(keys, func(a, b sessionKey) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		x, y := &s[a.i], &s[b.i]
		return cmp.Or(cmp.Compare(x.User, y.User), cmp.Compare(x.AP, y.AP))
	})
	// keys[k].i is the session that belongs at k; a slot filled points at
	// itself.
	for k := range keys {
		if keys[k].i == k {
			continue
		}
		held := s[k]
		for j := k; ; {
			src := keys[j].i
			keys[j].i = j
			if src == k {
				s[j] = held
				break
			}
			s[j], j = s[src], src
		}
	}
}

// A sessionKey stands for session i in SortSessions.
type sessionKey struct {
	at int64 // its ConnectAt
	i  int
}

// TimeRange returns the [earliest connect, latest disconnect] of all
// sessions, or (0, 0) for an empty trace.
func (tr *Trace) TimeRange() (start, end int64) {
	if len(tr.Sessions) == 0 {
		return 0, 0
	}
	start, end = tr.Sessions[0].ConnectAt, tr.Sessions[0].DisconnectAt
	for _, s := range tr.Sessions[1:] {
		start, end = min(start, s.ConnectAt), max(end, s.DisconnectAt)
	}
	return start, end
}

// Users returns the distinct user IDs across sessions, sorted.
func (tr *Trace) Users() []UserID {
	seen := make(map[UserID]bool)
	for _, s := range tr.Sessions {
		seen[s.User] = true
	}
	out := make([]UserID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// SessionsOfController returns sessions served within one controller
// domain.
func (tr *Trace) SessionsOfController(c ControllerID) []Session {
	var out []Session
	for _, s := range tr.Sessions {
		if s.Controller == c {
			out = append(out, s)
		}
	}
	return out
}

// SplitAt partitions the trace at the given timestamp: sessions that
// connect strictly before cut go to the first trace (the training split),
// the rest to the second (the test split). Flows split on their start
// time. Topology is shared by value.
//
// The halves may share the receiver's storage: a slice in time order
// (sessions by ConnectAt, flows by Start — what Generate returns) is cut
// in place, each half clamped to its length so an append to one cannot
// reach the other; one out of order is copied once into exactly sized
// halves. That is safe because nothing outside tests writes a session or
// flow in place (SortSessions' only caller is Generate, on its own trace).
func (tr *Trace) SplitAt(cut int64) (train, test *Trace) {
	train = &Trace{Topology: tr.Topology}
	test = &Trace{Topology: tr.Topology}
	train.Sessions, test.Sessions = splitAt(tr.Sessions, cut, func(s *Session) int64 { return s.ConnectAt })
	train.Flows, test.Flows = splitAt(tr.Flows, cut, func(f *Flow) int64 { return f.Start })
	return train, test
}

// splitAt returns the records timed before cut and the rest, in order:
// as views of s when s is in time order, as copies when it is not.
func splitAt[E any](s []E, cut int64, at func(*E) int64) (before, rest []E) {
	k, ordered := 0, true
	var prev int64
	for i := range s {
		t := at(&s[i])
		if t < cut {
			k++
		}
		ordered = ordered && (i == 0 || prev <= t)
		prev = t
	}
	if ordered {
		return s[:k:k], s[k:len(s):len(s)]
	}
	before, rest = make([]E, 0, k), make([]E, 0, len(s)-k)
	for i := range s {
		if at(&s[i]) < cut {
			before = append(before, s[i])
		} else {
			rest = append(rest, s[i])
		}
	}
	return before, rest
}

// Validate checks every record and the referential integrity of sessions
// against the topology. It returns the first problem found.
func (tr *Trace) Validate() error {
	apSet := make(map[APID]bool, len(tr.Topology.APs))
	for _, ap := range tr.Topology.APs {
		if ap.ID == "" {
			return fmt.Errorf("trace: topology AP with empty ID")
		}
		if ap.CapacityBps < 0 {
			return fmt.Errorf("trace: AP %s has negative capacity", ap.ID)
		}
		if apSet[ap.ID] {
			return fmt.Errorf("trace: duplicate AP %s", ap.ID)
		}
		apSet[ap.ID] = true
	}
	for i, s := range tr.Sessions {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		if len(apSet) > 0 && !apSet[s.AP] {
			return fmt.Errorf("session %d: unknown AP %s", i, s.AP)
		}
	}
	for i, f := range tr.Flows {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return nil
}

// DayIndex returns the zero-based day number of ts relative to epoch
// (both Unix seconds): the 86400-second day SecondsIntoDay and HourOfDay
// place ts in, negative before the epoch.
func DayIndex(epoch, ts int64) int {
	return int((ts - epoch - SecondsIntoDay(epoch, ts)) / 86400) // exact: a multiple of 86400
}

// SecondsIntoDay returns how far ts is into its local day, assuming the
// trace generator's convention that day boundaries fall on multiples of
// 86400 from the trace epoch.
func SecondsIntoDay(epoch, ts int64) int64 {
	d := (ts - epoch) % 86400
	if d < 0 {
		d += 86400
	}
	return d
}

// HourOfDay returns the hour-of-day (0..23) for ts relative to epoch.
func HourOfDay(epoch, ts int64) int {
	return int(SecondsIntoDay(epoch, ts) / 3600)
}

// FormatTime renders a trace timestamp human-readably (UTC).
func FormatTime(ts int64) string {
	return time.Unix(ts, 0).UTC().Format("2006-01-02 15:04:05")
}

// Slice returns a new trace containing the sessions overlapping
// [start, end) and the flows starting within it. Topology is carried
// over; record order is preserved.
func (tr *Trace) Slice(start, end int64) *Trace {
	out := &Trace{Topology: tr.Topology}
	for _, s := range tr.Sessions {
		if s.ConnectAt < end && s.DisconnectAt > start {
			out.Sessions = append(out.Sessions, s)
		}
	}
	for _, f := range tr.Flows {
		if f.Start >= start && f.Start < end {
			out.Flows = append(out.Flows, f)
		}
	}
	return out
}
