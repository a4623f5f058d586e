package domain

import (
	"fmt"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// State is a Domain's complete association state in portable form — the
// checkpoint payload of the journal's durability layer.
type State struct {
	Version int       `json:"version"`
	APs     []APState `json:"aps"`
}

// APState is one AP's exported state. Users and Demands are aligned and
// sorted by user ID for deterministic serialization.
type APState struct {
	ID          trace.APID     `json:"id"`
	CapacityBps float64        `json:"capacity_bps"`
	ReportedBps float64        `json:"reported_bps,omitempty"`
	Users       []trace.UserID `json:"users,omitempty"`
	Demands     []float64      `json:"demands,omitempty"`
}

// stateVersion guards the serialized format.
const stateVersion = 1

// ExportState fills st (a fresh State when nil) with the domain's full
// association state under one read lock: every AP, in sorted ID order,
// with its capacity, report and believed users/demands.
// st's APs and their Users/Demands slices are reused, so a caller that
// keeps one State exports without allocating once they have grown.
func (d *Domain) ExportState(st *State) *State {
	if st == nil {
		st = new(State)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	st.Version = stateVersion
	st.APs = slices.Grow(st.APs[:0], len(d.sorted))[:len(d.sorted)]
	for i, ap := range d.sorted {
		out := &st.APs[i]
		users, demands := sortedUsers(ap, out.Users, out.Demands)
		*out = APState{ID: ap.id, CapacityBps: ap.capacityBps, ReportedBps: ap.reportedBps,
			Users: users, Demands: demands}
	}
	return st
}

// ImportState loads an exported state into this domain, which must be
// empty (freshly constructed).
func (d *Domain) ImportState(st *State) error {
	if st == nil {
		return fmt.Errorf("domain: import nil state")
	}
	if st.Version != stateVersion {
		return fmt.Errorf("domain: unsupported state version %d", st.Version)
	}
	if d.Size() != 0 {
		return fmt.Errorf("domain: import into non-empty domain (%d APs)", d.Size())
	}
	for _, ap := range st.APs {
		if len(ap.Users) != len(ap.Demands) {
			return fmt.Errorf("domain: AP %q state has %d users but %d demands",
				ap.ID, len(ap.Users), len(ap.Demands))
		}
		if err := d.AddAP(ap.ID, ap.CapacityBps); err != nil {
			return err
		}
		d.mu.Lock()
		apst := d.aps[ap.ID]
		apst.reportedBps = ap.ReportedBps
		for i, u := range ap.Users {
			if u == "" {
				d.mu.Unlock()
				return fmt.Errorf("domain: AP %q state has empty user id", ap.ID)
			}
			if apst.bumpUser(u, ap.Demands[i]) {
				d.entries++
			}
			apst.believedBps += ap.Demands[i]
		}
		d.version++
		d.syncGauges()
		d.mu.Unlock()
	}
	return nil
}
