package domain

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Commit-path health, exported through the obs registry. Counters are
// process-wide (they accumulate across every Domain instance, live or
// simulated); the two size gauges are registered only for named domains
// (Config.ObsName) so parallel experiment cells do not fight over them.
var (
	obsCommits      = obs.GetCounter("domain.commits", "Placement commits applied")
	obsOverloads    = obs.GetCounter("domain.overloads", "Placements admitted beyond AP capacity (admission override)")
	obsViews        = obs.GetCounter("domain.views", "APView snapshots taken")
	obsMaterialized = obs.GetCounter("domain.views.materialized", "On-demand copies of one AP's membership taken through APView.Members")
)

// Sentinel errors returned by Commit.
var (
	// ErrUnknownAP reports a placement onto an AP the domain does not
	// know (never registered, or a policy bug).
	ErrUnknownAP = errors.New("unknown AP")
	// ErrStale reports that the domain changed after the view snapshot
	// whose Version a commit passed was taken. Every commit in the
	// repository passes nil and serializes decisions itself.
	ErrStale = errors.New("stale view version")
)

// LoadMode selects which load figure ViewsInto exposes to policies.
type LoadMode int

const (
	// LoadMax exposes max(reported, believed), believed being the live
	// sum of user demands — the default, the controller's view (a silent
	// AP agent still yields sane decisions) and the simulator's live one:
	// with no report ever set it is the believed sum, bit for bit.
	LoadMax LoadMode = iota
	// LoadReported exposes the last published report snapshot
	// (PublishReports / SetReported) — the simulator's stale-report mode
	// modelling CAPWAP-style periodic statistics.
	LoadReported
)

// APView is a policy's read-only view of one AP's live state. Both the
// batch simulator and the live controller hand policies exactly this
// (internal/wlan aliases the type), assembled by Domain.ViewsInto.
//
// The exported fields are aggregates, copied when the snapshot is taken.
// Membership is not copied: Intersect, SumDemands and Members read it on
// demand from the domain's current state. A view literal built without a
// domain has no members. A policy that ranks on aggregates alone (LLF,
// round-robin) never touches it, and the strongest-signal baseline
// computes SyntheticRSSI itself.
type APView struct {
	// ID identifies the AP.
	ID trace.APID
	// CapacityBps is the AP's bandwidth W(i) in bytes/second.
	CapacityBps float64
	// LoadBps is the AP's traffic load as selected by the domain's
	// LoadMode (the last report, or its max with the believed demand sum).
	LoadBps float64
	// NumUsers is the number of associated users.
	NumUsers int

	st *apState // membership source; nil for a literal
}

// Intersect calls visit(i, demand), in list order, for every users[i]
// (sorted ascending) that is associated with this AP, with the believed
// demand the member holds there. It is the one way a policy looks named
// users up on an AP: one read-lock and len(users) map hits, however many
// users the AP holds. visit runs under that lock and must not call into
// the domain.
func (v APView) Intersect(users []trace.UserID, visit func(i int, demand float64)) {
	st := v.st
	if st == nil || len(users) == 0 {
		return
	}
	st.dom.mu.RLock()
	for i, u := range users {
		if d, ok := st.users[u]; ok {
			visit(i, d)
		}
	}
	st.dom.mu.RUnlock()
}

// SumDemands adds up, in list order, the believed demands of those of
// users (sorted ascending) that are associated with this AP.
func (v APView) SumDemands(users []trace.UserID) float64 {
	var sum float64
	v.Intersect(users, func(_ int, demand float64) { sum += demand })
	return sum
}

// Members materialises the AP's membership: a caller-owned copy of the
// associated users, sorted, with their aligned believed demands. It is
// O(members); only policies that must iterate everyone on the AP call it.
func (v APView) Members() (users []trace.UserID, demands []float64) {
	st := v.st
	if st == nil {
		return nil, nil
	}
	obsMaterialized.Inc()
	st.dom.mu.RLock()
	defer st.dom.mu.RUnlock()
	return sortedUsers(st, nil, nil)
}

// HasCapacityFor reports whether adding demand keeps the AP within its
// bandwidth constraint Σw(u) ≤ W(i); it is the view-level face of the
// shared Admits predicate.
func (v APView) HasCapacityFor(demand float64) bool {
	return Admits(v.CapacityBps, v.LoadBps, demand)
}

// LessLoaded is the one least-loaded-first order: a ranks before b when
// it carries less load, then fewer users, then the smaller ID. LLF,
// LeastUsers' tie-break and S³'s fallbacks all rank by it.
func LessLoaded(a, b *APView) bool {
	if a.LoadBps != b.LoadBps {
		return a.LoadBps < b.LoadBps
	}
	if a.NumUsers != b.NumUsers {
		return a.NumUsers < b.NumUsers
	}
	return a.ID < b.ID
}

// LeastLoaded returns the ID of the AP that ranks first by LessLoaded;
// aps must not be empty.
func LeastLoaded(aps []APView) trace.APID {
	best := &aps[0]
	for i := 1; i < len(aps); i++ {
		if LessLoaded(&aps[i], best) {
			best = &aps[i]
		}
	}
	return best.ID
}

// Admits is the single capacity-admission predicate: adding demandBps to
// loadBps keeps the AP within capacityBps. APs with zero capacity are
// unconstrained (capacity not modeled). Every admission check in the
// repository — selector feasibility, simulator overload accounting,
// commit overload accounting — routes through this function.
func Admits(capacityBps, loadBps, demandBps float64) bool {
	if capacityBps <= 0 {
		return true
	}
	return loadBps+demandBps <= capacityBps
}

// FNV-1a parameters, inlined so Hash and SyntheticRSSI hash without
// instantiating a hash.Hash32 — hash/fnv's New32a escapes to the heap on
// every call.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv32aString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// Hash is the stable 32-bit FNV-1a string hash. The federation ownership
// map splits APs and users across controller replicas with it (group =
// Hash(id) % groups), and a cluster's per-group journals and leases on
// disk outlive a release, so its values must never change.
func Hash(s string) uint32 {
	return fnv32aString(uint32(fnvOffset32), s)
}

// SyntheticRSSI derives a stable pseudo-random signal strength in
// [-90, -30] dBm from the (user, AP) pair. It stands in for physical
// proximity: each user consistently "hears" some APs louder than others,
// which is all the strongest-RSSI baseline needs. Simulator and live
// controller share it, so signal-driven policies decide identically in
// both. The hash is FNV-1a over user|0x00|AP, computed inline — bit
// identical to the historical hash/fnv implementation, without its
// per-call allocation.
func SyntheticRSSI(u trace.UserID, ap trace.APID) float64 {
	h := (fnv32aString(uint32(fnvOffset32), string(u)) ^ 0) * fnvPrime32
	return -90 + float64(fnv32aString(h, string(ap))%61)
}

// Version is the domain version a ViewsInto snapshot was taken at, as a
// handle Commit validates against; nil skips validation entirely (forced
// commit). It is a pointer only because frozen bench/probes.go passes a
// literal nil: when bench/ is next open it can become a plain uint64 and
// Commit can take a force bool.
type Version *uint64

// Placement asks the domain to associate one user with one AP.
type Placement struct {
	User trace.UserID
	AP   trace.APID
	// DemandBps is the user's believed bandwidth demand.
	DemandBps float64
	// Prev, when non-empty, names an AP the user must be fully removed
	// from in the same atomic commit — a re-association move. The
	// removal and the placement land under one hold of the domain lock,
	// so a user is never observably on two APs or on none.
	Prev trace.APID
}

// CommitResult reports what a commit did beyond succeeding.
type CommitResult struct {
	// Overloads counts placements that violated the bandwidth constraint
	// (admission failed but the placement was applied anyway — the
	// domain must serve everyone; policies record the fallback).
	Overloads int
}

// Config configures a Domain.
type Config struct {
	// Mode selects the load figure views expose (default LoadMax).
	Mode LoadMode
	// ObsName, when non-empty, registers two gauges (domain.<name>.aps
	// and .users) kept current on every structural change. Leave empty
	// for throwaway domains (experiment cells) that would otherwise
	// fight over the process-wide registry.
	ObsName string
}

// apState is one AP's accounting. users is the only membership
// representation: view lookups hit it directly and the rare readers that
// need order (ExportState, Members) sort its keys at the read, so a
// mutation costs one map operation however many users the AP holds.
type apState struct {
	dom         *Domain // owning domain; its lock guards every field below
	id          trace.APID
	capacityBps float64
	reportedBps float64
	believedBps float64
	users       map[trace.UserID]float64 // user -> believed demand
}

// bumpUser adds delta to u's believed demand, inserting u when new.
// Reports whether u was newly inserted.
func (st *apState) bumpUser(u trace.UserID, delta float64) bool {
	cur, ok := st.users[u]
	st.users[u] = cur + delta
	return !ok
}

// Domain is the association-domain state machine: one lock domain, the
// unit a policy decision is consistent against.
type Domain struct {
	mode LoadMode

	mu      sync.RWMutex
	version uint64 // bumped on every structural or membership change
	aps     map[trace.APID]*apState
	sorted  []*apState // the same APs, in ascending ID order
	entries int        // total user entries across the APs

	gaugeAPs   *obs.Gauge // nil unless ObsName set
	gaugeUsers *obs.Gauge
}

// New builds a Domain.
func New(cfg Config) *Domain {
	d := &Domain{mode: cfg.Mode, aps: make(map[trace.APID]*apState)}
	if cfg.ObsName != "" {
		d.gaugeAPs = obs.GetGauge("domain."+cfg.ObsName+".aps", "Registered APs of one named domain")
		d.gaugeUsers = obs.GetGauge("domain."+cfg.ObsName+".users", "Associated users of one named domain")
	}
	return d
}

// syncGauges publishes the domain's sizes; must run with d.mu held.
func (d *Domain) syncGauges() {
	if d.gaugeAPs != nil {
		d.gaugeAPs.Set(int64(len(d.sorted)))
		d.gaugeUsers.Set(int64(d.entries))
	}
}

// AddAP registers an AP. Duplicate IDs error.
func (d *Domain) AddAP(id trace.APID, capacityBps float64) error {
	if id == "" {
		return errors.New("domain: empty AP id")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.aps[id]; dup {
		return fmt.Errorf("domain: AP %q already registered", id)
	}
	st := &apState{
		dom:         d,
		id:          id,
		capacityBps: capacityBps,
		users:       make(map[trace.UserID]float64),
	}
	d.aps[id] = st
	at, _ := slices.BinarySearchFunc(d.sorted, id, func(s *apState, id trace.APID) int { return cmp.Compare(s.id, id) })
	d.sorted = slices.Insert(d.sorted, at, st)
	d.version++
	d.syncGauges()
	return nil
}

// SetCapacity updates an AP's capacity (an agent re-hello may revise
// it). Reports false for unknown APs.
func (d *Domain) SetCapacity(id trace.APID, capacityBps float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.aps[id]
	if !ok {
		return false
	}
	st.capacityBps = capacityBps
	d.version++
	return true
}

// SetReported records an external load report for one AP (the live
// controller's agent reports). Reports false for unknown APs.
//
// Unlike SetCapacity this deliberately does not bump the version:
// load reports are advisory inputs to LoadReported/LoadMax scoring, not
// structural changes.
func (d *Domain) SetReported(id trace.APID, loadBps float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.aps[id]
	if !ok {
		return false
	}
	st.reportedBps = loadBps
	return true
}

// PublishReports snapshots every AP's believed load into its reported
// load — the simulator's periodic report tick (LoadReported mode).
func (d *Domain) PublishReports() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.sorted {
		st.reportedBps = st.believedBps
	}
}

// Size returns the registered AP count.
func (d *Domain) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sorted)
}

// sortedUsers writes st's membership into users' and demands' storage
// (from index 0, grown past its capacity; nil, nil for fresh copies) in
// ascending user order with the aligned demands; must run with the
// domain lock held.
func sortedUsers(st *apState, users []trace.UserID, demands []float64) ([]trace.UserID, []float64) {
	users = slices.Grow(users[:0], len(st.users))
	for u := range st.users {
		users = append(users, u)
	}
	slices.Sort(users)
	demands = slices.Grow(demands[:0], len(users))
	for _, u := range users {
		demands = append(demands, st.users[u])
	}
	return users, demands
}

// ViewBuf is a reusable snapshot buffer for ViewsInto: the view slice
// and the version, nothing per resident. A caller that keeps one takes
// policy-decision snapshots without allocating once the slice has grown
// to the AP count. The contents are valid until the next ViewsInto call
// on the same buffer.
type ViewBuf struct {
	views []APView
	ver   uint64
}

// Views returns the snapshot taken by the last ViewsInto call.
func (b *ViewBuf) Views() []APView { return b.views }

// Version returns the domain version of the last ViewsInto call.
func (b *ViewBuf) Version() Version { return &b.ver }

// ViewsInto snapshots the APs for a policy decision into a caller-owned
// reusable buffer, with the domain version the commit validates against.
// It reads nothing of the requester: the user parameter is kept only
// because frozen bench/probes.go passes one. It is one consistent cut,
// taken under one read lock, in sorted AP-ID order. It touches O(APs)
// aggregates and never the membership, so its cost does not depend on
// how many users are resident.
//
// The snapshot holds each AP's aggregates as of the call; membership
// reads through the views (Intersect, Members) see the domain's state
// at the time of the read. Both drivers decide and commit with no
// mutation in between, so the two agree.
func (d *Domain) ViewsInto(_ trace.UserID, buf *ViewBuf) {
	obsViews.Inc()
	buf.views = buf.views[:0]
	d.mu.RLock()
	buf.ver = d.version
	for _, st := range d.sorted {
		load := st.reportedBps
		if d.mode == LoadMax && st.believedBps >= load {
			load = st.believedBps
		}
		buf.views = append(buf.views, APView{
			ID:          st.id,
			CapacityBps: st.capacityBps,
			LoadBps:     load,
			NumUsers:    len(st.users),
			st:          st,
		})
	}
	d.mu.RUnlock()
}

// Commit applies a placement set atomically under the domain lock: the
// version is validated (ver == nil forces the commit without validation),
// then every target, then all placements are applied. On ErrStale or
// ErrUnknownAP nothing was applied.
func (d *Domain) Commit(ps []Placement, ver Version) (CommitResult, error) {
	var res CommitResult
	if len(ps) == 0 {
		return res, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	// Validate the version, then targets — all before any mutation.
	if ver != nil && *ver != d.version {
		return res, ErrStale
	}
	for _, p := range ps {
		if _, ok := d.aps[p.AP]; !ok {
			return res, fmt.Errorf("domain: %w: %q", ErrUnknownAP, p.AP)
		}
	}

	// Apply in order: sequential placements see each other's load, so a
	// batch commit charges overloads exactly like sequential commits.
	for _, p := range ps {
		if p.Prev != "" {
			if prev, ok := d.aps[p.Prev]; ok {
				d.leaveLocked(prev, p.User, math.Inf(1))
			}
		}
		st := d.aps[p.AP]
		if !Admits(st.capacityBps, st.believedBps, p.DemandBps) {
			res.Overloads++
		}
		if st.bumpUser(p.User, p.DemandBps) {
			d.entries++
		}
		st.believedBps += p.DemandBps
	}
	d.version++
	d.syncGauges()
	obsCommits.Inc()
	if res.Overloads > 0 {
		obsOverloads.Add(int64(res.Overloads))
	}
	return res, nil
}

// Leave releases demand of one of u's sessions on ap — multiplicity
// semantics for the simulator, where a user may hold several concurrent
// sessions on the same AP: the believed demand is decremented and the
// user entry survives until its demand drains. A demand of +Inf
// detaches u, releasing exactly its recorded demand: the controller's
// disassociation, one assignment per user. Reports false when the AP or
// the user is unknown.
func (d *Domain) Leave(u trace.UserID, ap trace.APID, demandBps float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.aps[ap]; !ok || !d.leaveLocked(st, u, demandBps) {
		return false
	}
	d.version++
	d.syncGauges()
	return true
}

// leaveLocked is Leave on st, with d.mu held and the version and gauges
// left to the caller.
func (d *Domain) leaveLocked(st *apState, u trace.UserID, demandBps float64) bool {
	cur, ok := st.users[u]
	if !ok {
		return false
	}
	// Bound the release by the user's recorded demand so a misreported
	// leave cannot erase other sessions' believed load on this AP.
	release := demandBps
	if release > cur {
		release = cur
	}
	if rem := cur - release; rem <= 1e-9 {
		delete(st.users, u)
		d.entries--
	} else {
		st.users[u] = rem
	}
	st.believedBps -= release
	if st.believedBps < 0 {
		st.believedBps = 0
	}
	return true
}
